package dtree

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"armdse/internal/dataset"
)

// serializeWith trains on (x, y) with opt and returns the serialized model.
func serializeWith(t *testing.T, x [][]float64, y []float64, opt Options) []byte {
	t.Helper()
	tree, err := Train(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelByteIdentity pins the tentpole determinism contract: the build
// result is invariant under the worker count, byte for byte, for every
// split-finder mode — including MaxFeatures, whose per-node feature subsets
// are keyed by tree path rather than by scheduling order.
func TestParallelByteIdentity(t *testing.T) {
	x, y := benchData(3000)
	cases := []struct {
		name string
		opt  Options
	}{
		{"exact", Options{}},
		{"hist64", Options{Bins: 64}},
		{"maxfeat", Options{MaxFeatures: 10, Seed: 7}},
		{"hist-maxfeat-minleaf", Options{Bins: 32, MaxFeatures: 10, Seed: 7, MinSamplesLeaf: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Workers = 1
			ref := serializeWith(t, x, y, opt)
			for _, workers := range []int{0, 2, 8} {
				opt.Workers = workers
				got := serializeWith(t, x, y, opt)
				if !bytes.Equal(ref, got) {
					t.Errorf("workers=%d model differs from serial build", workers)
				}
			}
		})
	}
}

// TestForestWorkerInvariance pins that per-tree parallelism never changes a
// forest: each tree's bootstrap and training seed derive from the tree index,
// not from which worker drew it.
func TestForestWorkerInvariance(t *testing.T) {
	x, y := benchData(400)
	build := func(workers int) *Forest {
		f, err := TrainForest(x, y, ForestOptions{Trees: 9, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref := build(1)
	for _, workers := range []int{2, 8} {
		got := build(workers)
		for i := range ref.trees {
			rb, err := ref.trees[i].Serialize()
			if err != nil {
				t.Fatal(err)
			}
			gb, err := got.trees[i].Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb, gb) {
				t.Errorf("workers=%d: tree %d differs from serial forest", workers, i)
			}
		}
	}
}

// maxGoroutinesDuring runs fn while a probe goroutine repeatedly dumps every
// goroutine's stack, and returns the most goroutines the dtree package had
// started at any one sample (the probe itself excluded). Counting by creator
// keeps runtime and testing goroutines out of the figure.
func maxGoroutinesDuring(fn func()) int {
	peak := 0 // written by the probe only, read after it stops
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		buf := make([]byte, 1<<20)
		for {
			stacks := string(buf[:runtime.Stack(buf, true)])
			n := strings.Count(stacks, "created by armdse/internal/dtree.") -
				strings.Count(stacks, "created by armdse/internal/dtree.maxGoroutinesDuring")
			peak = max(peak, n)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	fn()
	close(done)
	<-stopped
	return peak
}

// TestForestSerialWorkers pins that ForestOptions.Workers 1 trains fully
// serially: neither the forest nor its trees' subtree builds start a
// goroutine beyond the caller's. The same probe must see extra goroutines
// at Workers 2, or it proves nothing.
func TestForestSerialWorkers(t *testing.T) {
	x, y := benchData(2000)
	train := func(workers int) int {
		return maxGoroutinesDuring(func() {
			if _, err := TrainForest(x, y, ForestOptions{Trees: 2, Seed: 3, Workers: workers}); err != nil {
				t.Error(err)
			}
		})
	}
	if extra := train(1); extra > 0 {
		t.Errorf("Workers 1 forest ran %d goroutines beyond the caller's", extra)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		if extra := train(2); extra == 0 {
			t.Error("probe saw no extra goroutines at Workers 2")
		}
	}
}

// TestImportanceWorkerInvariance pins the deterministic reduction: each
// (feature, repeat) shuffle has its own substream and the totals are summed
// in feature order after the join, so the report is worker-count-invariant.
func TestImportanceWorkerInvariance(t *testing.T) {
	x, y := benchData(600)
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(x[0]))
	for i := range names {
		names[i] = "f"
	}
	run := func(workers int) []Importance {
		imps, err := PermutationImportanceOpt(tree, x, y, names, ImportanceOptions{
			Repeats: 3, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return imps
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("workers=%d: importance %d = %+v, serial %+v", workers, i, got[i], ref[i])
			}
		}
	}

	// The legacy entry point is the Opt form with default workers.
	legacy, err := PermutationImportance(tree, x, y, names, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != legacy[i] {
			t.Errorf("legacy importance %d = %+v, opt form %+v", i, legacy[i], ref[i])
		}
	}
}

// TestPredictBatchMatchesPredict pins that the batched predictors are pure
// fan-outs of the scalar ones at any worker count.
func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := benchData(500)
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(x, y, ForestOptions{Trees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		tp := tree.PredictBatch(x, workers)
		fp := forest.PredictBatch(x, workers)
		for i, row := range x {
			if tp[i] != tree.Predict(row) {
				t.Fatalf("workers=%d: tree batch[%d] = %g, Predict %g", workers, i, tp[i], tree.Predict(row))
			}
			if fp[i] != forest.Predict(row) {
				t.Fatalf("workers=%d: forest batch[%d] = %g, Predict %g", workers, i, fp[i], forest.Predict(row))
			}
		}
	}
	if got := tree.PredictBatch(nil, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d predictions", len(got))
	}
}

// loadGolden reads the checked-in design-space fixture (200 sampled
// configurations x 30 parameters, cycle targets for two mini-apps) collected
// by the repo's own pipeline.
func loadGolden(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.LoadFile("testdata/golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestHistogramToleranceGolden bounds the accuracy cost of histogram binning
// on real design-space data: an exact tree and a 256-bin tree are trained on
// the same 80% split of the golden fixture, and the histogram tree's held-out
// RMSE against the simulated truth must stay within 10% of the exact tree's.
// Near-tie splits resolve differently under binned accumulation, so the two
// trees are not node-identical off the training rows — the contract is that
// binning never costs meaningful accuracy (measured ratios on this fixture:
// 0.86-0.94, i.e. slightly better than exact).
func TestHistogramToleranceGolden(t *testing.T) {
	d := loadGolden(t)
	train, test := d.Split(1, 0.8)
	if train.Len() == 0 || test.Len() == 0 {
		t.Fatalf("golden fixture too small: %d rows", d.Len())
	}
	const maxRMSERatio = 1.10
	rmse := func(tr *Tree, x [][]float64, y []float64) float64 {
		p := tr.PredictBatch(x, 1)
		var sse float64
		for i := range y {
			sse += (p[i] - y[i]) * (p[i] - y[i])
		}
		return math.Sqrt(sse / float64(len(y)))
	}
	for _, app := range d.Apps {
		yTrain, err := train.Target(app)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Train(train.X, yTrain, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hist, err := Train(train.X, yTrain, Options{Bins: 256})
		if err != nil {
			t.Fatal(err)
		}
		yTest, err := test.Target(app)
		if err != nil {
			t.Fatal(err)
		}
		ratio := rmse(hist, test.X, yTest) / rmse(exact, test.X, yTest)
		t.Logf("%s: held-out RMSE ratio hist/exact = %.3f", app, ratio)
		if ratio > maxRMSERatio {
			t.Errorf("%s: histogram RMSE is %.3fx exact's (max %v)", app, ratio, maxRMSERatio)
		}
		// On the rows it was trained on, the single-sample-leaf histogram
		// tree must still memorize exactly, like the exact tree does.
		if got := rmse(hist, train.X, yTrain); got != 0 {
			t.Errorf("%s: histogram tree training RMSE %g, want exact memorization", app, got)
		}
	}
}

// TestHistogramBinExtremes pins the binner's edge behavior: a bin count far
// above the distinct-value count degenerates to the exact split on every
// feature, and the minimum count of two still produces a working tree.
func TestHistogramBinExtremes(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	y := []float64{1, 1, 1, 1, 9, 9, 9, 9}
	wide, err := Train(x, y, Options{Bins: maxBins})
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Predict([]float64{2}); got != 1 {
		t.Errorf("wide-bin Predict(2) = %g, want 1", got)
	}
	if got := wide.Predict([]float64{7}); got != 9 {
		t.Errorf("wide-bin Predict(7) = %g, want 9", got)
	}
	narrow, err := Train(x, y, Options{Bins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := narrow.Predict([]float64{7}); got != 9 {
		t.Errorf("two-bin Predict(7) = %g, want 9", got)
	}
}
