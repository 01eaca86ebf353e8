package main

import (
	"fmt"
	"math"
	"sync"

	"armdse/internal/dtree"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/simeng"
)

// Quality metrics and re-simulation checks. All of them run after the
// timed window, on rows of the first sizes.qualPasses passes, so they are a
// deterministic function of the seed.

// surrogateFolds is the cross-validation fold count of surrogateMAPE.
const surrogateFolds = 5

// surrogateMAPE scores the paper's surrogate on a collected dataset: the
// mean absolute percentage error of the per-app CART tree (paper defaults)
// under k-fold cross-validation, folds taken by row position.
func (b *bench) surrogateMAPE(rows []rowRecord) (float64, error) {
	var x [][]float64
	var ys = map[string][]float64{}
	for _, r := range rows {
		if r.failed {
			continue
		}
		x = append(x, params.Encode(r.cfg))
		for _, app := range b.apps {
			ys[app] = append(ys[app], r.targets[app])
		}
	}
	if len(x) < 2*surrogateFolds {
		return 0, fmt.Errorf("surrogate error needs %d rows, have %d", 2*surrogateFolds, len(x))
	}
	var sum float64
	var n int
	for fold := 0; fold < surrogateFolds; fold++ {
		var trX, teX [][]float64
		var trI, teI []int
		for i := range x {
			if i%surrogateFolds == fold {
				teX, teI = append(teX, x[i]), append(teI, i)
			} else {
				trX, trI = append(trX, x[i]), append(trI, i)
			}
		}
		for _, app := range b.apps {
			y := ys[app]
			trY := make([]float64, len(trI))
			for j, i := range trI {
				trY[j] = y[i]
			}
			t, err := dtree.Train(trX, trY, dtree.Options{Workers: threads})
			if err != nil {
				return 0, err
			}
			for j, i := range teI {
				sum += ape(t.Predict(teX[j]), y[i])
				n++
			}
		}
	}
	return 100 * sum / float64(n), nil
}

// boundCycles answers cfg on every suite app from the analytical bound
// model, the hybrid evaluator's prior: the predicted cycles at the model's
// lower bound, as the bound evaluator reports them. No simulation runs.
func (b *bench) boundCycles(cfg params.Config) (map[string]float64, error) {
	bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(b.apps))
	for _, app := range b.apps {
		st := b.stats[progKey{app, cfg.Core.VectorLength}]
		bd := bm.Bounds(st)
		out[app] = float64(bm.PredictedStats(st, bd, bd.Lower).Cycles)
	}
	return out, nil
}

// boundMAPE scores the bound model against exactly simulated rows.
func (b *bench) boundMAPE(rows []rowRecord) (float64, error) {
	var sum float64
	var n int
	for _, r := range rows {
		if r.failed || r.predicted {
			continue
		}
		pred, err := b.boundCycles(r.cfg)
		if err != nil {
			return 0, fmt.Errorf("bound model on index %d: %w", r.index, err)
		}
		for _, app := range b.apps {
			sum += ape(pred[app], r.targets[app])
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no exactly simulated rows to score the bound model on")
	}
	return 100 * sum / float64(n), nil
}

// resimMatch is one (row, app) pair simulated again in this process.
type resimMatch struct {
	row   rowRecord
	app   string
	stats simeng.Stats
	err   error
}

// resimulate runs every (row, app) pair of rows through exact simulation on
// threads goroutines and returns the outcomes in row, then suite, order.
func (b *bench) resimulate(rows []rowRecord) []resimMatch {
	out := make([]resimMatch, 0, len(rows)*len(b.suite))
	for _, r := range rows {
		for _, w := range b.suite {
			out = append(out, resimMatch{row: r, app: w.Name()})
		}
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				m := &out[i]
				m.stats, m.err = orchestrate.RunOne(m.row.cfg, b.suite[i%len(b.suite)])
			}
		}()
	}
	for i := range out {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// exactMAPE re-simulates rows and returns the mean absolute percentage
// error of their recorded targets against exact simulation.
func (b *bench) exactMAPE(rows []rowRecord) (float64, error) {
	var sum float64
	var n int
	for _, m := range b.resimulate(rows) {
		if m.err != nil {
			return 0, fmt.Errorf("re-simulating index %d %s: %w", m.row.index, m.app, m.err)
		}
		sum += ape(m.row.targets[m.app], float64(m.stats.Cycles))
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no rows to score")
	}
	return 100 * sum / float64(n), nil
}

// ape is the absolute percentage error of got against want, as a fraction.
func ape(got, want float64) float64 { return math.Abs(got-want) / want }
