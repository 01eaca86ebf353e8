package dtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refBestSplit is the exact split search as it was written before the
// pair-sorting scan: a sort.Slice over the node's sample indices per
// feature, then the same boundary scan, then the stable partition. It is
// kept as the reference the production finder must match bit for bit; it
// rewrites idx in place exactly as findBestSplit does.
func refBestSplit(tr *trainer, idx []int, seed uint64, sum, sumSq, parentSSE float64) (splitResult, int) {
	n := len(idx)
	feats := tr.splitFeatures(&splitScratch{feats: make([]int, tr.nf)}, seed)
	perm := make([]int, n)
	best := splitResult{feature: -1}
	for _, f := range feats {
		copy(perm, idx)
		xf := tr.x
		sort.Slice(perm, func(a, b int) bool { return xf[perm[a]][f] < xf[perm[b]][f] })
		var lSum, lSq float64
		for k := 0; k < n-1; k++ {
			yi := tr.y[perm[k]]
			lSum += yi
			lSq += yi * yi
			nl := k + 1
			nr := n - nl
			if nl < tr.opt.MinSamplesLeaf || nr < tr.opt.MinSamplesLeaf {
				continue
			}
			v0 := xf[perm[k]][f]
			v1 := xf[perm[k+1]][f]
			if v0 == v1 {
				continue
			}
			rSum := sum - lSum
			rSq := sumSq - lSq
			sse := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
			gain := parentSSE - sse
			if gain > best.gain+1e-12 {
				best.gain = gain
				best.feature = f
				best.threshold = v0 + (v1-v0)/2
			}
		}
	}
	if best.feature < 0 {
		return best, 0
	}
	var left, right []int
	for _, i := range idx {
		if tr.x[i][best.feature] <= best.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	copy(idx, append(left, right...))
	return best, len(left)
}

// refColumn fills column f of x in one of the shapes that stress the exact
// scan's tie handling and comparison semantics.
func refColumn(rng *rand.Rand, x [][]float64, f int) {
	specials := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)}
	shape := rng.Intn(6)
	c := 2 + rng.Intn(4)
	for _, row := range x {
		var v float64
		switch shape {
		case 0: // all equal
			v = 3
		case 1: // heavy ties
			v = float64(rng.Intn(c))
		case 2: // continuous
			v = rng.NormFloat64()
		case 3: // ties with ±Inf and signed zeros
			v = specials[rng.Intn(c)]
			if v != v {
				v = float64(rng.Intn(c))
			}
		case 4: // ties with NaN
			v = float64(rng.Intn(c))
			if rng.Intn(4) == 0 {
				v = math.NaN()
			}
		case 5: // ties and every special value
			v = float64(rng.Intn(c))
			if rng.Intn(3) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
		}
		row[f] = v
	}
}

// TestExactSplitMatchesReference pins the pair-sorting finder to the
// sort.Slice reference on 1000 seeded random nodes: identical feature,
// threshold and gain bits, and the identical partition. The two agree only
// because slices.SortFunc and sort.Slice instantiate the same pdqsort and
// visit the same permutation, ties included — this test catches a toolchain
// that breaks that.
func TestExactSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for node := 0; node < 1000; node++ {
		rows := 2 + rng.Intn(300)
		nf := 1 + rng.Intn(6)
		x := make([][]float64, rows)
		for i := range x {
			x[i] = make([]float64, nf)
		}
		for f := 0; f < nf; f++ {
			refColumn(rng, x, f)
		}
		y := make([]float64, rows)
		for i := range y {
			if node%2 == 0 {
				y[i] = float64(10_000_000 + rng.Intn(90_000_000)) // large integers: order-sensitive sums
			} else {
				y[i] = float64(rng.Intn(4)) + rng.Float64()
			}
		}
		opt := Options{MinSamplesLeaf: 1 + rng.Intn(5), Workers: 1}
		if rng.Intn(3) == 0 {
			opt.MaxFeatures, opt.Seed = 1+rng.Intn(nf), rng.Int63()
		}
		tr := newTrainer(x, y, opt)

		// The node is a random subset of the rows, ascending as the build
		// produces them or shuffled.
		idx := rng.Perm(rows)[:1+rng.Intn(rows)]
		if rng.Intn(2) == 0 {
			slices.Sort(idx)
		}
		var sum, sumSq float64
		for _, i := range idx {
			sum += y[i]
			sumSq += y[i] * y[i]
		}
		parentSSE := sumSq - sum*sum/float64(len(idx))
		seed := rng.Uint64()

		wantIdx := slices.Clone(idx)
		want, wantNL := refBestSplit(tr, wantIdx, seed, sum, sumSq, parentSSE)
		gotIdx := slices.Clone(idx)
		got, gotNL := tr.findBestSplit(gotIdx, seed, sum, sumSq, parentSSE)

		if got.feature != want.feature ||
			math.Float64bits(got.threshold) != math.Float64bits(want.threshold) ||
			math.Float64bits(got.gain) != math.Float64bits(want.gain) {
			t.Fatalf("node %d: split = %+v, reference %+v", node, got, want)
		}
		if gotNL != wantNL || !slices.Equal(gotIdx, wantIdx) {
			t.Fatalf("node %d: partition (nl %d) differs from reference (nl %d)", node, gotNL, wantNL)
		}
	}
}
