package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/params"
)

// analyzeTrainFrac is the analyze workload's train share; the rest is the
// held-out split the surrogate is scored on.
const analyzeTrainFrac = 0.8

// analyzeWL is the paper's surrogate stage on a large dataset: per app, the
// CART tree with paper defaults, permutation importance on the held-out
// split, and a random forest. Setup answers every row from the analytical
// simeng.BoundModel directly, so the timed passes do no simulation at all
// and the workload does not depend on the standalone bound evaluator.
type analyzeWL struct {
	data, train, test *dataset.Dataset
	rows              []rowRecord
	insts             int64 // retired instructions the dataset's rows stand for

	trainSec, impSec, forestSec float64 // traced passes
	traced                      int
}

func (w *analyzeWL) setup(b *bench) error {
	if err := b.buildPrograms(b.spans); err != nil {
		return err
	}
	n := b.sz.analyzeRows
	sp := b.spans.begin("simeng.BoundModel", 0, int64(n))
	defer b.spans.end(sp)
	// Rows are independent, so threads goroutines each answer every
	// threads-th index.
	w.rows = make([]rowRecord, n)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < n && errs[t] == nil; i += threads {
				cfg := params.ConfigAt(b.seed, i)
				targets, err := b.boundCycles(cfg)
				if err != nil {
					errs[t] = fmt.Errorf("bound model on index %d: %w", i, err)
				}
				w.rows[i] = rowRecord{index: i, cfg: cfg, targets: targets, predicted: true}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.data = dataset.New(params.FeatureNames(), b.apps)
	w.insts = 0
	for _, r := range w.rows {
		if err := w.data.Append(params.Encode(r.cfg), r.targets); err != nil {
			return err
		}
		w.insts += b.rowInsts(r.cfg)
	}
	w.train, w.test = w.data.Split(b.seed, analyzeTrainFrac)
	return nil
}

func (w *analyzeWL) pass(b *bench, k int, tr *tracer) (passResult, error) {
	root := tr.begin("analyze.pass", 0, int64(k))
	defer tr.end(root)
	var trainSec, impSec, forestSec float64
	var mapeSum float64
	var mapeN, nodes int
	t0 := time.Now()
	for _, app := range b.apps {
		y, err := w.train.Target(app)
		if err != nil {
			return passResult{}, err
		}
		testY, err := w.test.Target(app)
		if err != nil {
			return passResult{}, err
		}
		sp := tr.begin("dtree.Train", root, int64(k))
		ts := time.Now()
		tree, err := dtree.Train(w.train.X, y, dtree.Options{Workers: threads})
		trainSec += time.Since(ts).Seconds()
		tr.end(sp)
		if err != nil {
			return passResult{}, err
		}
		sp = tr.begin("dtree.PermutationImportance", root, int64(k))
		ts = time.Now()
		_, err = dtree.PermutationImportanceOpt(tree, w.test.X, testY, w.data.FeatureNames,
			dtree.ImportanceOptions{Repeats: b.sz.impRepeats, Seed: b.seed, Workers: threads})
		impSec += time.Since(ts).Seconds()
		tr.end(sp)
		if err != nil {
			return passResult{}, err
		}
		sp = tr.begin("dtree.TrainForest", root, int64(k))
		ts = time.Now()
		_, err = dtree.TrainForest(w.train.X, y, dtree.ForestOptions{Trees: b.sz.forestTrees, Seed: b.seed, Workers: threads})
		forestSec += time.Since(ts).Seconds()
		tr.end(sp)
		if err != nil {
			return passResult{}, err
		}
		if k == 0 {
			nodes += tree.NumNodes()
			for i, x := range w.test.X {
				mapeSum += ape(tree.Predict(x), testY[i])
				mapeN++
			}
		}
	}
	wall := time.Since(t0).Seconds()
	if k == 0 {
		b.layer["dtree.surrogate_mape_pct"] = 100 * mapeSum / float64(mapeN)
		b.layer["dtree.tree_nodes"] = float64(nodes)
	}
	if tr != nil {
		w.trainSec += trainSec
		w.impSec += impSec
		w.forestSec += forestSec
		w.traced++
	}
	return passResult{wall: wall, rows: w.data.Len(), insts: w.insts, attempts: w.data.Len()}, nil
}

func (w *analyzeWL) finish(b *bench) error {
	if err := w.checkSerialize(b); err != nil {
		return err
	}
	// The bound rows the surrogate learns from, against exact simulation.
	sample := sampleRows(rand.New(rand.NewSource(b.seed)), w.rows, b.sz.boundCheck)
	var err error
	if b.e2e["hybrid_mape_pct"], err = b.exactMAPE(sample); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := w.data.WriteCSV(&buf); err != nil {
		return err
	}
	b.sha256 = sha256Hex(buf.Bytes())
	if b.traced {
		n := float64(max(w.traced, 1))
		b.layer["dtree.train_s"] = w.trainSec / n
		b.layer["dtree.importance_s"] = w.impSec / n
		b.layer["dtree.forest_s"] = w.forestSec / n
	}
	return nil
}

// checkSerialize is analyze's correctness gate: on a seeded subset of the
// training rows, every app's tree serialises to the same bytes whether
// built serially or on threads workers.
func (w *analyzeWL) checkSerialize(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	idx := rng.Perm(w.train.Len())[:min(b.sz.serialRows, w.train.Len())]
	x := make([][]float64, len(idx))
	for i, j := range idx {
		x[i] = w.train.X[j]
	}
	for _, app := range b.apps {
		all, err := w.train.Target(app)
		if err != nil {
			return err
		}
		y := make([]float64, len(idx))
		for i, j := range idx {
			y[i] = all[j]
		}
		var got [2][]byte
		for i, workers := range []int{1, threads} {
			t, err := dtree.Train(x, y, dtree.Options{Workers: workers})
			if err != nil {
				return err
			}
			if got[i], err = t.Serialize(); err != nil {
				return err
			}
		}
		if !bytes.Equal(got[0], got[1]) {
			b.failf("analyze: %s tree serialises differently at Workers 1 and %d", app, threads)
		}
	}
	return nil
}
