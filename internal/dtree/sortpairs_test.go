package dtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"armdse/internal/params"
)

// refLessPair is the less-only comparator the exact scan sorted with before
// sortPairs: -1 iff a.v < b.v, else 0.
func refLessPair(a, b pair) int {
	if a.v < b.v {
		return -1
	}
	return 0
}

// sortPairsPatterns names the input shapes the differential test feeds both
// sorts. Each fills n pairs whose y is the input position, so any
// difference in the permutation, ties included, shows in y.
var sortPairsPatterns = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"sorted", func(_ *rand.Rand, n int) []float64 { return fill(n, func(i int) float64 { return float64(i) }) }},
	{"reversed", func(_ *rand.Rand, n int) []float64 { return fill(n, func(i int) float64 { return float64(n - i) }) }},
	{"all-equal", func(_ *rand.Rand, n int) []float64 { return fill(n, func(int) float64 { return 7 }) }},
	{"few-distinct", func(rng *rand.Rand, n int) []float64 {
		// 2–8 distinct powers of two, the shape of a design-space column.
		k := 2 + rng.Intn(7)
		return fill(n, func(int) float64 { return math.Ldexp(1, 4+rng.Intn(k)) })
	}},
	{"sawtooth", func(rng *rand.Rand, n int) []float64 {
		period := 1 + rng.Intn(16)
		return fill(n, func(i int) float64 { return float64(i % period) })
	}},
	{"organ-pipe", func(_ *rand.Rand, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(min(i, n-1-i)) })
	}},
	{"sorted-few-swaps", func(rng *rand.Rand, n int) []float64 {
		v := fill(n, func(i int) float64 { return float64(i) })
		swaps := 1 + rng.Intn(4)
		for s := 0; n > 1 && s < swaps; s++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v[i], v[j] = v[j], v[i]
		}
		return v
	}},
	{"continuous", func(rng *rand.Rand, n int) []float64 { return fill(n, func(int) float64 { return rng.NormFloat64() }) }},
	{"specials", func(rng *rand.Rand, n int) []float64 {
		specials := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), 1, -1}
		return fill(n, func(int) float64 { return specials[rng.Intn(len(specials))] })
	}},
	{"ties-and-nan", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(3))
		})
	}},
}

func fill(n int, f func(i int) float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return v
}

// TestSortPairsReference pins sortPairs to slices.SortFunc with a less-only
// comparator: for every pattern, every length 0–64 and seeded lengths up to
// ~5000, both leave the same v and y bits at every position. That is the
// property the trained models rely on (the tie order fixes the prefix sums).
func TestSortPairsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := make([]int, 0, 65+24)
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for range 24 {
		lengths = append(lengths, 65+rng.Intn(5000))
	}
	for _, p := range sortPairsPatterns {
		for _, n := range lengths {
			v := p.gen(rng, n)
			got := make([]pair, n)
			for i := range got {
				got[i] = pair{v[i], float64(i)}
			}
			want := slices.Clone(got)
			sortPairs(got)
			slices.SortFunc(want, refLessPair)
			for i := range got {
				if math.Float64bits(got[i].v) != math.Float64bits(want[i].v) ||
					math.Float64bits(got[i].y) != math.Float64bits(want[i].y) {
					t.Fatalf("%s n=%d: position %d holds (%v, %v), slices.SortFunc put (%v, %v) there",
						p.name, n, i, got[i].v, got[i].y, want[i].v, want[i].y)
				}
			}
		}
	}
}

// TestHeapSortPairs checks the heapsort fallback, which pdqsort reaches
// only after too many unbalanced partitions and so no ordinary input
// exercises: it must leave the range ordered by v and be a permutation.
func TestHeapSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 2, 13, 100, 1000} {
		ps := make([]pair, n)
		for i := range ps {
			ps[i] = pair{float64(rng.Intn(10)), float64(i)}
		}
		pdqsortPairs(ps, 0, n, 0)
		seen := make([]bool, n)
		for i := range ps {
			if i > 0 && ps[i].v < ps[i-1].v {
				t.Fatalf("n=%d: position %d (%v) below its predecessor (%v)", n, i, ps[i].v, ps[i-1].v)
			}
			seen[int(ps[i].y)] = true
		}
		if slices.Contains(seen, false) {
			t.Fatalf("n=%d: result is not a permutation of the input", n)
		}
	}
}

// BenchmarkSortPairs sorts one encoded design-space feature (the ROB size)
// of 4800 params.ConfigAt(1, i) rows, the exact scan's root-node sort at the
// analyze forest's shape, with the vendored sort and with slices.SortFunc.
func BenchmarkSortPairs(b *testing.B) {
	const rows = 4800
	src := make([]pair, rows)
	for i := range src {
		src[i] = pair{params.Encode(params.ConfigAt(1, i))[params.FROBSize], float64(i)}
	}
	ps := make([]pair, rows)
	for _, bc := range []struct {
		name string
		sort func([]pair)
	}{
		{"sortPairs", sortPairs},
		{"slices.SortFunc", func(ps []pair) { slices.SortFunc(ps, refLessPair) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(ps, src)
				bc.sort(ps)
			}
		})
	}
}
