package main

import (
	"fmt"
	"math/rand"

	"armdse/internal/orchestrate"
	"armdse/internal/search"
)

// adaptiveEscalate pins the hybrid evaluator's escalation threshold. At the
// default threshold (orchestrate.DefaultEvalEscalate) every config
// escalates to exact simulation, so the predicted fast path this workload
// exists to measure would never run. At 1.0 routed escalations arrive as
// whole generations, so a pass's exact-simulation work varies threefold with
// the seed and throughput spreads beyond any usable bound between seeds; at
// 2.0 only the warmup escalates and every later config is routed to the
// fast path.
const adaptiveEscalate = 2.0

// adaptiveWL is the "AI-assisted" loop: the ucb proposer feeds Collect
// under the hybrid evaluator, so the pass shares its time between search
// barriers (warm forest refits, pool scoring), residual-forest routing and
// escalated exact simulations.
type adaptiveWL struct {
	qual    []rowRecord
	ledger  collectLedger
	barrier float64 // seconds, traced passes
	gens    int
	rows    int // traced passes
	escal   int // traced passes
}

func (w *adaptiveWL) setup(b *bench) error { return b.buildPrograms(b.spans) }

func (w *adaptiveWL) pass(b *bench, k int, tr *tracer) (passResult, error) {
	seed, budget := passSeed(b.seed, k), b.sz.adaptBudget
	prop, err := search.NewProposer(search.ProposeOptions{
		Strategy: search.StrategyUCB, Seed: seed, Budget: budget,
		Batch: b.sz.adaptBatch, Workers: threads, Apps: b.apps,
	})
	if err != nil {
		return passResult{}, err
	}
	batches := &timedBatches{inner: prop}
	out, err := b.collect(k, tr, collectSpec{
		name: "adaptive", seed: seed, samples: budget,
		meta: fmt.Sprintf("seed=%d samples=%d paper=false eval=%s search=%s", seed, budget, orchestrate.EvalHybrid, prop.Digest()),
		eval: orchestrate.EvalHybrid, escalate: adaptiveEscalate,
		batches: batches, search: prop.Digest(),
	})
	if err != nil {
		return passResult{}, err
	}
	recs, runlogBytes, err := readRunlog(out.runlogPath)
	if err != nil {
		return passResult{}, err
	}
	b.checkStalls("adaptive", k, recs, budget)
	vlOf := vlIndex(out.rows)
	escalated := 0
	p := passResult{wall: out.wall, rows: out.data.Len(), failed: out.failed, attempts: budget}
	for _, r := range out.rows {
		if !r.failed && !r.predicted {
			escalated++
			p.insts += b.rowInsts(r.cfg)
		}
	}
	if k == 0 {
		if err := b.fingerprint(out.reg, recs, vlOf, out.csvPath); err != nil {
			return passResult{}, err
		}
		b.layer["orchestrate.escalated"] = float64(escalated)
	}
	if k < b.sz.qualPasses {
		w.qual = append(w.qual, out.rows...)
	}
	if tr != nil {
		l := &w.ledger
		l.passes++
		l.wall += out.wall
		l.putSec = append(l.putSec, out.putSec...)
		l.compactSec += out.compactSec
		l.journalBytes += float64(out.journalBytes)
		l.runlogBytes += float64(runlogBytes)
		l.addRunlog(b, recs, vlOf)
		w.barrier += batches.barrier.Seconds()
		w.gens += batches.gens
		w.rows += len(out.rows)
		w.escal += escalated
	}
	return p, nil
}

func (w *adaptiveWL) finish(b *bench) error {
	var predicted, escalated []rowRecord
	for _, r := range w.qual {
		switch {
		case r.failed:
		case r.predicted:
			predicted = append(predicted, r)
		default:
			escalated = append(escalated, r)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	predicted = sampleRows(rng, predicted, b.sz.hybridCheck)
	escalated = sampleRows(rng, escalated, b.sz.escCheck)
	if len(predicted) == 0 {
		return fmt.Errorf("the hybrid predicted no rows at threshold %g", adaptiveEscalate)
	}
	var err error
	if b.e2e["hybrid_mape_pct"], err = b.exactMAPE(predicted); err != nil {
		return err
	}
	for _, m := range b.resimulate(escalated) {
		if m.err != nil {
			b.failf("adaptive: re-simulating escalated index %d %s: %v", m.row.index, m.app, m.err)
		} else if float64(m.stats.Cycles) != m.row.targets[m.app] {
			b.failf("adaptive: escalated index %d %s has %v cycles, exact simulation %d", m.row.index, m.app, m.row.targets[m.app], m.stats.Cycles)
		}
	}
	if !b.traced {
		return nil
	}
	if b.layer["dtree.surrogate_mape_pct"], err = b.surrogateMAPE(w.qual); err != nil {
		return err
	}
	w.ledger.into(b.layer, b.apps)
	n := float64(max(w.ledger.passes, 1))
	b.layer["search.barrier_s"] = w.barrier / n
	b.layer["search.generations"] = float64(w.gens) / n
	if w.ledger.wall > 0 {
		b.layer["search.barrier_frac"] = w.barrier / w.ledger.wall
	}
	if w.rows > 0 {
		b.layer["orchestrate.escalated_frac"] = float64(w.escal) / float64(w.rows)
	}
	return nil
}

// sampleRows returns n rows of rows chosen by rng, in rows' order.
func sampleRows(rng *rand.Rand, rows []rowRecord, n int) []rowRecord {
	if n >= len(rows) {
		return rows
	}
	pick := rng.Perm(len(rows))[:n]
	keep := make([]bool, len(rows))
	for _, i := range pick {
		keep[i] = true
	}
	out := make([]rowRecord, 0, n)
	for i, r := range rows {
		if keep[i] {
			out = append(out, r)
		}
	}
	return out
}
