package orchestrate

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"armdse/internal/isa"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// The staged collection engine. Collection is wired as three explicit,
// separately testable stages:
//
//	batch source  →  worker stage  →  row sink
//
// The source proposes design-space points batch by batch (BatchSource);
// the fixed sweep's source, RangeBatches, derives each point independently
// per global index (params.ConfigAt), so any subset of indices can be
// simulated on any worker, in any shard, or in any resumed run and the
// final dataset is identical. The worker stage evaluates the full workload
// suite on one configuration and emits a Row outcome record. The sink
// consumes rows as they complete — in memory (DatasetSink) or streamed to
// an on-disk journal (StreamSink) that survives interruption.

// Row is the outcome record of one configuration.
type Row struct {
	// Index is the configuration's global index in the source.
	Index int
	// Gen is the proposal generation that produced the configuration;
	// always 0 in a fixed sweep (a RangeBatches source).
	Gen int
	// Config is the simulated design-space point.
	Config params.Config
	// Features is the canonical feature encoding of Config.
	Features []float64
	// Targets maps application name to simulated cycles; nil when Err is
	// non-nil.
	Targets map[string]float64
	// Stalls maps application name to the run's per-class stall
	// breakdown (each sums to that run's cycles); nil when Err is
	// non-nil.
	Stalls map[string]simeng.StallBreakdown
	// Cycles is the total number of cycles simulated across the suite.
	Cycles int64
	// Err records the first per-run failure; nil for a clean row.
	Err error
	// Predicted reports that Targets came from an analytical or learned
	// model rather than exact simulation — always false under the exact
	// evaluator, true for bound rows and the hybrid's non-escalated rows.
	Predicted bool
	// Confidence is the evaluator's self-assessed reliability of a
	// predicted row, in (0, 1]; zero on exact rows.
	Confidence float64
}

// Failed reports whether the row was dropped by the validation gate.
func (r Row) Failed() bool { return r.Err != nil }

// RowSink consumes completed rows. The engine calls Put from multiple
// worker goroutines concurrently, in completion order (not index order);
// implementations must be safe for concurrent use. A Put error aborts the
// run.
type RowSink interface {
	Put(row Row) error
}

// ProgressEvent snapshots a running collection after a configuration
// finishes.
type ProgressEvent struct {
	// Done counts finished configurations, including failed ones.
	Done int
	// Failed counts configurations dropped by the validation gate so far.
	Failed int
	// Total is the number of configurations this run will attempt — the
	// source size minus skipped (already-journaled or out-of-shard)
	// indices.
	Total int
	// RowsPerSec is the mean completion rate since the run started.
	RowsPerSec float64
	// Cycles is the total number of core cycles simulated so far.
	Cycles int64
	// Elapsed is the monotonic wall time since the run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall time from the mean completion rate;
	// zero until the first row lands and once the run is complete. Computed
	// once here so every consumer (CLI progress line, monitor endpoint,
	// journal heartbeats) shares the same estimate.
	ETA time.Duration
}

// Engine wires the stages together and runs the worker pool.
type Engine struct {
	// Batches proposes the configurations generation by generation (see
	// BatchSource); required. A RangeBatches source is the fixed sweep.
	Batches BatchSource
	// Prior holds the completed rows of an interrupted run (see
	// PriorRowsFromJournal); combine with Skip to avoid re-simulating
	// them. A proposer sees them as the results of its earlier batches, and
	// the hybrid evaluator replays them through its router so its residual
	// forests match the uninterrupted run's.
	Prior []Row
	// Suite is the workload set simulated on every configuration;
	// required.
	Suite []workload.Workload
	// Sink receives every completed row; required.
	Sink RowSink
	// Backend selects the memory backend by name (BackendSST, BackendFlat,
	// BackendProxy); empty uses BackendSST, the study's default.
	Backend string
	// Eval selects the per-config evaluator by name (EvalExact, EvalBound,
	// EvalHybrid); empty uses EvalExact, the study's default.
	Eval string
	// EvalEscalate is the hybrid evaluator's escalation threshold on the
	// residual forest's log-space spread; 0 uses DefaultEvalEscalate.
	EvalEscalate float64
	// Seed drives the hybrid evaluator's residual-training substreams (it
	// does not affect the source). A hybrid run is deterministic in
	// (source, Seed, threshold): identical inputs route and predict
	// identically at any worker count.
	Seed int64
	// Workers bounds the worker pool; 0 uses GOMAXPROCS.
	Workers int
	// MaxCyclesPerRun aborts pathological runs; 0 uses the engine
	// default.
	MaxCyclesPerRun int64
	// Skip, when non-nil, drops index i before simulation — the resume
	// and shard hook.
	Skip func(i int) bool
	// Progress, when non-nil, is invoked after every finished
	// configuration.
	//
	// Concurrency contract: the engine serialises all Progress calls (it
	// is never invoked concurrently with itself), but successive calls
	// may come from different worker goroutines. Done increases by
	// exactly one per call. The callback runs on the hot path — keep it
	// fast and do not block.
	Progress func(ev ProgressEvent)
	// Telemetry, when non-nil, receives per-run metrics, sweep gauges and
	// JSONL journal records; see Telemetry. Recording is allocation-free
	// and purely observational — a telemetered run produces byte-identical
	// dataset output.
	Telemetry *Telemetry
}

// Run feeds every non-skipped index through the worker stage into the
// sink. It returns the done/failed counts. On context cancellation it
// stops feeding, drains in-flight configurations into the sink, and
// returns ctx.Err() — everything already completed is preserved by the
// sink.
func (e *Engine) Run(ctx context.Context) (done, failed int, err error) {
	if e.Batches == nil {
		return 0, 0, fmt.Errorf("orchestrate: engine needs a Batches source")
	}
	if e.Sink == nil {
		return 0, 0, fmt.Errorf("orchestrate: engine needs a Sink")
	}
	if len(e.Suite) == 0 {
		return 0, 0, fmt.Errorf("orchestrate: empty workload suite")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &evalRun{suite: e.Suite, backend: e.Backend, tel: e.Telemetry, cache: newProgramCache(), maxCycles: e.MaxCyclesPerRun}
	if r.maxCycles <= 0 {
		r.maxCycles = simeng.DefaultMaxCycles
	}
	// The per-config body is chosen once per run. A hybrid run also builds
	// its routing state, and indexes the prior rows it replays.
	kind := e.Eval
	var body func(rc *runContext, cfg params.Config, i, worker int) Row
	var prior map[int]Row
	switch kind {
	case "", EvalExact:
		kind, body = EvalExact, r.exact
	case EvalBound:
		body = r.bound
	case EvalHybrid:
		body = r.hybrid
		r.hst = newHybridState(e.EvalEscalate, e.Seed, workers)
		prior = make(map[int]Row, len(e.Prior))
		for _, row := range e.Prior {
			prior[row.Index] = row
		}
	default:
		return 0, 0, fmt.Errorf("orchestrate: unknown evaluator %q (want one of %v)", e.Eval, Evaluators())
	}

	// A fixed sweep's batches ignore prior results, so it keeps no rows
	// for the proposer, tags no generations, and feeds its batches back to
	// back — the barrier is only needed where a proposer or the hybrid's
	// residual refresh consumes a complete batch.
	_, fixed := e.Batches.(*RangeBatches)
	barrier := !fixed || r.hst != nil

	// The progress total counts the indices of the source's Budget hint
	// (0 when it offers none) that are not skipped.
	total := 0
	if b, ok := e.Batches.(Budgeter); ok {
		for i := 0; i < b.Budget(); i++ {
			if e.Skip == nil || !e.Skip(i) {
				total++
			}
		}
	}

	start := time.Now()
	tel := e.Telemetry
	tel.bind(e.Suite, workers, total, start)
	tel.bindEval(kind)
	tel.bindBatchMode(!fixed)
	r.cache.instrument(tel)

	type job struct {
		idx     int
		gen     int
		cfg     params.Config
		pending *sync.WaitGroup
	}
	jobs := make(chan job)
	var wg sync.WaitGroup

	// Shared run state, guarded by mu: progress counters, the first sink
	// error (which aborts the run), and the rows completed in the current
	// batch, tapped for the proposer.
	var mu sync.Mutex
	var cycles int64
	var sinkErr error
	var batchRows []Row

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Each worker owns one pooled run context: core and backend
			// are allocated on the first job and reset in place for
			// every subsequent one. The worker index doubles as
			// the telemetry shard, so metric recording never contends
			// across workers.
			rc := newRunContext()
			rc.tel, rc.worker = tel, worker
			for j := range jobs {
				t0 := time.Now()
				row := body(rc, j.cfg, j.idx, worker)
				row.Gen = j.gen
				tel.configDone(worker, &row, time.Since(t0).Nanoseconds())
				mu.Lock()
				if sinkErr != nil {
					mu.Unlock()
					j.pending.Done()
					continue
				}
				sp := tel.sinkHist().Start(worker)
				err := e.Sink.Put(row)
				sp.End()
				if err != nil {
					sinkErr = err
					mu.Unlock()
					j.pending.Done()
					continue
				}
				if !fixed {
					batchRows = append(batchRows, row)
				}
				done++
				if row.Failed() {
					failed++
				}
				cycles += row.Cycles
				elapsed := time.Since(start)
				ev := ProgressEvent{
					Done:       done,
					Failed:     failed,
					Total:      total,
					RowsPerSec: float64(done) / elapsed.Seconds(),
					Cycles:     cycles,
					Elapsed:    elapsed,
				}
				if done > 0 && done < total {
					ev.ETA = time.Duration(float64(elapsed) * float64(total-done) / float64(done))
				}
				tel.progress(ev)
				if e.Progress != nil {
					e.Progress(ev)
				}
				mu.Unlock()
				j.pending.Done()
			}
		}(w)
	}

	// Feed stage: ask → run → feed results back → ask again. Batch g owns
	// the contiguous indices [base, base+len(batch)); the proposer sees
	// exactly the rows with Index < base — all complete earlier batches,
	// sorted by index — which is what makes the proposal sequence a pure
	// function of (source state, prior results), independent of worker
	// count and resume point. Under the hybrid every batch is a routing
	// generation: the residual forests refresh before it is fed and stay
	// frozen until its barrier, so each routing decision is a pure
	// function of (source, Seed, threshold) too.
	var rows []Row
	if !fixed {
		rows = append(rows, e.Prior...)
		sortRowsByIndex(rows)
	}
	var ctxErr error
	base := 0
feed:
	for gen := 0; ; gen++ {
		cut := 0
		for cut < len(rows) && rows[cut].Index < base {
			cut++
		}
		barrierT0 := time.Now()
		batch, ok := e.Batches.NextBatch(rows[:cut:cut])
		barrierNanos := time.Since(barrierT0).Nanoseconds()
		if !ok || len(batch) == 0 {
			break
		}
		var bstats BatchStats
		if bs, hasStats := e.Batches.(BatchStatsSource); hasStats {
			bstats = bs.LastBatchStats()
		}
		tel.searchBarrierDone(gen, barrierNanos, bstats)
		if gen > 0 && r.hst != nil {
			tel.evalRefresh(r.hst.refresh())
		}
		var pending sync.WaitGroup
		var skipped []int
		for bi, cfg := range batch {
			i := base + bi
			if e.Skip != nil && e.Skip(i) {
				if r.hst != nil {
					skipped = append(skipped, bi)
				}
				continue
			}
			mu.Lock()
			aborted := sinkErr != nil
			mu.Unlock()
			if aborted {
				break feed
			}
			j := job{idx: i, cfg: cfg, pending: &pending}
			if !fixed {
				j.gen = gen
			}
			pending.Add(1)
			select {
			case jobs <- j:
			case <-ctx.Done():
				pending.Done()
				ctxErr = ctx.Err()
				break feed
			}
		}
		if barrier {
			pending.Wait()
		}
		// A resumed hybrid run rebuilds the training set the interrupted
		// run had: each skipped row of this generation is routed again
		// through the frozen forests, and the ones that escalated teach
		// the next refresh exactly as they did the first time.
		for _, bi := range skipped {
			if row, ok := prior[base+bi]; ok {
				r.replay(batch[bi], row)
			}
		}
		base += len(batch)
		if !fixed {
			mu.Lock()
			rows = append(rows, batchRows...)
			batchRows = nil
			mu.Unlock()
			sortRowsByIndex(rows)
		}
	}
	close(jobs)
	wg.Wait()

	if sinkErr != nil {
		return done, failed, sinkErr
	}
	return done, failed, ctxErr
}

// sortRowsByIndex orders rows by their global index — the canonical order
// the batch feed presents prior results in.
func sortRowsByIndex(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
}

// evalRun is one run's evaluator state, shared by every worker: the
// program cache, the cycle budget and — under the hybrid — the residual
// routing state. Its exact, bound and hybrid methods are the per-config
// bodies the engine chooses between; each evaluates configuration index i
// on the calling worker and records the outcome.
type evalRun struct {
	suite     []workload.Workload
	backend   string
	tel       *Telemetry
	cache     *programCache
	maxCycles int64
	hst       *hybridState
}

// exact simulates the full suite on cfg through the worker's pooled run
// context. Telemetry recording (per-app wall time, stall aggregates,
// journal staging) rides the same pass; with a nil Telemetry the only
// overhead is a nil check per app.
func (r *evalRun) exact(rc *runContext, cfg params.Config, i, worker int) Row {
	tel := r.tel
	tel.beginConfig(worker)
	row := Row{Index: i, Config: cfg, Features: cfg.Features()}
	targets := make(map[string]float64, len(r.suite))
	stalls := make(map[string]simeng.StallBreakdown, len(r.suite))
	for ai, w := range r.suite {
		prog, err := r.cache.get(w, cfg.Core.VectorLength, worker)
		if err != nil {
			row.Err = err
			return row
		}
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		st, err := rc.simulate(r.backend, cfg, prog, r.maxCycles)
		if tel != nil {
			tel.appRun(worker, ai, time.Since(t0).Nanoseconds(), st, err)
		}
		row.Cycles += st.Cycles
		if err != nil {
			row.Err = fmt.Errorf("%s: %w", w.Name(), err)
			return row
		}
		targets[w.Name()] = float64(st.Cycles)
		stalls[w.Name()] = st.Stalls
	}
	row.Targets = targets
	row.Stalls = stalls
	return row
}

// bound answers every application of cfg from the analytical bound model
// (PredictBound), no simulation.
func (r *evalRun) bound(_ *runContext, cfg params.Config, i, worker int) Row {
	bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
	if err != nil {
		r.tel.beginConfig(worker)
		return Row{Index: i, Config: cfg, Features: cfg.Features(), Err: err}
	}
	return r.predicted(cfg, i, worker, func(_ int, st isa.StreamStats) (simeng.Stats, float64) {
		return PredictBound(bm, st)
	})
}

// hybrid predicts cfg from the frozen residual forests when every
// application clears the confidence threshold, and otherwise escalates it
// to the exact body — so escalated rows are byte-identical to an exact
// run's — folding the exact outcomes into the next refresh.
func (r *evalRun) hybrid(rc *runContext, cfg params.Config, i, worker int) Row {
	bm, plans, confident := r.route(cfg, worker)
	if confident {
		return r.predicted(cfg, i, worker, func(ai int, st isa.StreamStats) (simeng.Stats, float64) {
			p := plans[ai]
			return bm.PredictedStats(st, p.b, predictCycles(p.b, p.mean)), spreadConfidence(p.std)
		})
	}
	row := r.exact(rc, cfg, i, worker)
	r.tel.evalDecision(worker, false, 0)
	r.learn(plans, row)
	return row
}

// predicted assembles a predicted row: predict answers each application
// from its stream statistics with the predicted stats (stalls summing to
// cycles) and a confidence, and the row carries the least confident
// application's.
func (r *evalRun) predicted(cfg params.Config, i, worker int, predict func(ai int, st isa.StreamStats) (simeng.Stats, float64)) Row {
	tel := r.tel
	tel.beginConfig(worker)
	row := Row{Index: i, Config: cfg, Features: cfg.Features()}
	targets := make(map[string]float64, len(r.suite))
	stalls := make(map[string]simeng.StallBreakdown, len(r.suite))
	conf := 1.0
	for ai, w := range r.suite {
		st, err := r.cache.getStats(w, cfg.Core.VectorLength, worker)
		if err != nil {
			row.Err = fmt.Errorf("%s: %w", w.Name(), err)
			return row
		}
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		ps, c := predict(ai, st)
		if tel != nil {
			tel.appRun(worker, ai, time.Since(t0).Nanoseconds(), ps, nil)
		}
		row.Cycles += ps.Cycles
		targets[w.Name()] = float64(ps.Cycles)
		stalls[w.Name()] = ps.Stalls
		if c < conf {
			conf = c
		}
	}
	row.Targets = targets
	row.Stalls = stalls
	row.Predicted, row.Confidence = true, conf
	tel.evalDecision(worker, true, conf)
	return row
}

// appPlan is one application's routing input: its residual features, its
// analytical bounds, and the frozen forest's log-space mean and spread.
type appPlan struct {
	x    []float64
	b    simeng.Bounds
	mean float64
	std  float64
}

// route consults the frozen residual forests on every application of cfg.
// confident reports whether all of them clear the escalation threshold;
// any miss — no model yet, spread above threshold, a stats error, or a
// config outside the bound model's domain — escalates the whole
// configuration, keeping each Row purely exact or purely predicted. Plans
// are nil when the bound model rejects cfg.
func (r *evalRun) route(cfg params.Config, worker int) (bm *simeng.BoundModel, plans []appPlan, confident bool) {
	bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
	if err != nil {
		return nil, nil, false
	}
	cfgFeats := cfg.Features()
	plans = make([]appPlan, len(r.suite))
	confident = true
	for ai, w := range r.suite {
		st, err := r.cache.getStats(w, cfg.Core.VectorLength, worker)
		if err != nil {
			confident = false
			continue
		}
		b := bm.Bounds(st)
		x := hybridFeatures(cfgFeats, bm, b)
		mean, std, ok := r.hst.decide(w.Name(), x)
		plans[ai] = appPlan{x: x, b: b, mean: mean, std: std}
		if !ok {
			confident = false
		}
	}
	return bm, plans, confident
}

// learn folds an escalated row's exact cycles into the residual training
// set, one observation per application the router could plan; failed rows
// teach nothing.
func (r *evalRun) learn(plans []appPlan, row Row) {
	if row.Failed() {
		return
	}
	for ai, p := range plans {
		if p.x == nil {
			continue
		}
		lower := p.b.Lower
		if lower < 1 {
			lower = 1
		}
		name := r.suite[ai].Name()
		r.hst.observe(name, row.Index, p.x, math.Log(row.Targets[name]/float64(lower)))
	}
}

// replay routes a row completed by an interrupted run through the frozen
// forests of its generation, using the generation's own cfg, and learns
// from it exactly when the original run escalated it. Routing is a pure
// function of the frozen forests, so no routing record is journaled. It
// runs at a barrier, while every worker is idle, on worker 0's telemetry
// shard.
func (r *evalRun) replay(cfg params.Config, row Row) {
	if _, plans, confident := r.route(cfg, 0); !confident {
		r.learn(plans, row)
	}
}

// SuiteNames returns the application names of a workload suite, in order —
// the target column set of a collection over that suite.
func SuiteNames(suite []workload.Workload) []string {
	names := make([]string, len(suite))
	for i, w := range suite {
		names[i] = w.Name()
	}
	return names
}
