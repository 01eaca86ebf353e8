package orchestrate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/params"
	"armdse/internal/simeng"
)

// TestEvaluatorFactoryErrors table-drives every error path of the two
// by-name selections — the engine's evaluator and the memory backend: both
// must reject unknown kinds with an error that names the offender and lists
// the valid kinds.
func TestEvaluatorFactoryErrors(t *testing.T) {
	cases := []struct {
		name    string
		kind    string
		wantErr bool
	}{
		{"empty is exact", "", false},
		{"exact", EvalExact, false},
		{"bound", EvalBound, false},
		{"hybrid", EvalHybrid, false},
		{"unknown", "oracle", true},
		{"case sensitive", "Exact", true},
		{"whitespace", " exact", true},
		{"backend name is not an evaluator", BackendFlat, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// An empty range: the engine selects its body and stops.
			eng := &Engine{
				Batches: &RangeBatches{}, Suite: tinySuite(), Eval: tc.kind,
				Sink: NewDatasetSink(params.FeatureNames(), SuiteNames(tinySuite())),
			}
			done, _, err := eng.Run(context.Background())
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Eval %q accepted", tc.kind)
				}
				for _, want := range append(Evaluators(), tc.kind) {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				return
			}
			if err != nil || done != 0 {
				t.Fatalf("Eval %q: done %d, %v", tc.kind, done, err)
			}
		})
	}
}

// TestBackendFactoryErrors table-drives NewBackend's error paths the same
// way (the evaluator selection mirrors its contract).
func TestBackendFactoryErrors(t *testing.T) {
	cfg := params.ThunderX2()
	cases := []struct {
		name    string
		kind    string
		wantErr bool
	}{
		{"empty is sst", "", false},
		{"sst", BackendSST, false},
		{"flat", BackendFlat, false},
		{"proxy", BackendProxy, false},
		{"unknown", "dram", true},
		{"case sensitive", "SST", true},
		{"evaluator name is not a backend", EvalHybrid, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem, err := NewBackend(tc.kind, cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewBackend(%q) accepted", tc.kind)
				}
				for _, want := range append(Backends(), tc.kind) {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("NewBackend(%q): %v", tc.kind, err)
			}
			if mem == nil {
				t.Fatalf("nil backend without error")
			}
		})
	}
}

func TestEngineRejectsUnknownEval(t *testing.T) {
	_, err := Collect(context.Background(), Options{
		Seed: 1, Samples: 1, Suite: tinySuite(), Eval: "oracle",
	})
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("unknown evaluator accepted: %v", err)
	}
}

// The exact evaluator's rows carry exactly what RunOne reports for each
// application, marked neither predicted nor confident.
func TestExactEvaluatorMatchesRunOne(t *testing.T) {
	rec := newRowRecorder()
	if _, err := Collect(context.Background(), Options{
		Seed: 3, Samples: 1, Suite: tinySuite(), Eval: EvalExact, Sink: rec,
	}); err != nil {
		t.Fatal(err)
	}
	row := rec.rows[0]
	if row.Predicted || row.Confidence != 0 {
		t.Errorf("exact row flags: predicted=%v confidence=%g", row.Predicted, row.Confidence)
	}
	for _, w := range tinySuite() {
		want, err := RunOne(params.ConfigAt(3, 0), w)
		if err != nil {
			t.Fatal(err)
		}
		if got := row.Targets[w.Name()]; got != float64(want.Cycles) {
			t.Errorf("%s: exact row %g cycles, RunOne %d", w.Name(), got, want.Cycles)
		}
		if row.Stalls[w.Name()] != want.Stalls {
			t.Errorf("%s: exact row stalls differ from RunOne", w.Name())
		}
	}
}

func TestBoundEvaluatorPredicts(t *testing.T) {
	cfg := params.ThunderX2()
	w := tinySuite()[0]
	bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program(cfg.Core.VectorLength)
	if err != nil {
		t.Fatal(err)
	}
	got, conf := PredictBound(bm, prog.Stats())
	exact, err := RunOne(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, exact) || got.Cycles != bm.Bounds(prog.Stats()).Lower {
		t.Error("bound prediction is not the analytical lower bound")
	}
	if conf <= 0 || conf > 1 {
		t.Errorf("confidence = %g", conf)
	}
	if got.Cycles <= 0 {
		t.Errorf("cycles = %d", got.Cycles)
	}
	if sum := got.Stalls.Total(); sum != got.Cycles {
		t.Errorf("stall breakdown sums to %d, cycles %d", sum, got.Cycles)
	}
	// The prediction is the analytical lower bound, so exact simulation can
	// only be slower.
	if exact.Cycles < got.Cycles {
		t.Errorf("exact %d below analytical lower bound %d", exact.Cycles, got.Cycles)
	}
}

// rowRecorder captures every emitted row keyed by index.
type rowRecorder struct {
	mu   sync.Mutex
	rows map[int]Row
}

func newRowRecorder() *rowRecorder { return &rowRecorder{rows: make(map[int]Row)} }

func (r *rowRecorder) Put(row Row) error {
	r.mu.Lock()
	r.rows[row.Index] = row
	r.mu.Unlock()
	return nil
}

func (r *rowRecorder) indices() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, 0, len(r.rows))
	for i := range r.rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

func TestCollectBoundEval(t *testing.T) {
	rec := newRowRecorder()
	res, err := Collect(context.Background(), Options{
		Seed: 5, Samples: 6, Workers: 3, Suite: tinySuite(),
		Eval: EvalBound, Sink: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 6 {
		t.Fatalf("done = %d", res.Done)
	}
	for _, i := range rec.indices() {
		row := rec.rows[i]
		if row.Failed() {
			t.Fatalf("row %d failed: %v", i, row.Err)
		}
		if !row.Predicted {
			t.Errorf("row %d not marked predicted", i)
		}
		if row.Confidence <= 0 || row.Confidence > 1 {
			t.Errorf("row %d confidence = %g", i, row.Confidence)
		}
		for app, cycles := range row.Targets {
			if cycles <= 0 {
				t.Errorf("row %d %s cycles = %g", i, app, cycles)
			}
			if sum := row.Stalls[app].Total(); float64(sum) != cycles {
				t.Errorf("row %d %s stall sum %d != cycles %g", i, app, sum, cycles)
			}
		}
	}
}

// hybridCollect runs a hybrid collection into a row recorder.
func hybridCollect(t *testing.T, workers int, escalate float64) *rowRecorder {
	t.Helper()
	rec := newRowRecorder()
	_, err := Collect(context.Background(), Options{
		Seed: 7, Samples: 18, Workers: workers, Suite: tinySuite(),
		Eval: EvalHybrid, EvalEscalate: escalate, EvalWarmup: 6, EvalRefresh: 4,
		Sink: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestHybridRoutingDeterminism pins the seam's hardest invariant: with the
// same seed and thresholds, a hybrid collection makes identical routing
// decisions and emits identical rows at any worker count — the evaluator
// analogue of TestWorkerCountInvariance.
func TestHybridRoutingDeterminism(t *testing.T) {
	for _, escalate := range []float64{0.05, 0.5} {
		a := hybridCollect(t, 1, escalate)
		for _, workers := range []int{2, 4, 8} {
			b := hybridCollect(t, workers, escalate)
			if len(a.rows) != len(b.rows) {
				t.Fatalf("escalate %g: row counts differ: %d (1 worker) vs %d (%d workers)",
					escalate, len(a.rows), len(b.rows), workers)
			}
			for _, i := range a.indices() {
				ra, rb := a.rows[i], b.rows[i]
				if ra.Predicted != rb.Predicted {
					t.Errorf("escalate %g: row %d routing differs: 1 worker predicted=%v, %d workers predicted=%v",
						escalate, i, ra.Predicted, workers, rb.Predicted)
					continue
				}
				if ra.Confidence != rb.Confidence {
					t.Errorf("escalate %g workers %d: row %d confidence differs: %g vs %g",
						escalate, workers, i, ra.Confidence, rb.Confidence)
				}
				for app, ca := range ra.Targets {
					if cb := rb.Targets[app]; ca != cb {
						t.Errorf("escalate %g workers %d: row %d %s cycles differ: %g vs %g",
							escalate, workers, i, app, ca, cb)
					}
					if ra.Stalls[app] != rb.Stalls[app] {
						t.Errorf("escalate %g workers %d: row %d %s stalls differ", escalate, workers, i, app)
					}
				}
			}
		}
	}
}

// TestHybridEscalatedRowsMatchExact pins the escalation contract: every
// escalated row of a hybrid collection is byte-identical to the same
// index's row under the exact evaluator, and the warmup prefix is always
// escalated.
func TestHybridEscalatedRowsMatchExact(t *testing.T) {
	exact := newRowRecorder()
	if _, err := Collect(context.Background(), Options{
		Seed: 7, Samples: 18, Workers: 2, Suite: tinySuite(), Sink: exact,
	}); err != nil {
		t.Fatal(err)
	}
	hybrid := hybridCollect(t, 2, 0.3)

	escalated := 0
	for _, i := range hybrid.indices() {
		hr := hybrid.rows[i]
		if i < 6 && hr.Predicted {
			t.Errorf("warmup row %d was predicted", i)
		}
		if hr.Predicted {
			continue
		}
		escalated++
		er, ok := exact.rows[i]
		if !ok {
			t.Fatalf("no exact row %d", i)
		}
		for app, want := range er.Targets {
			if got := hr.Targets[app]; got != want {
				t.Errorf("escalated row %d %s: hybrid %g != exact %g", i, app, got, want)
			}
			if hr.Stalls[app] != er.Stalls[app] {
				t.Errorf("escalated row %d %s stalls differ", i, app)
			}
		}
		if hr.Cycles != er.Cycles || hr.Confidence != 0 {
			t.Errorf("escalated row %d: cycles %d vs %d, confidence %g", i, hr.Cycles, er.Cycles, hr.Confidence)
		}
	}
	if escalated < 6 {
		t.Errorf("only %d rows escalated, expected at least the 6-row warmup", escalated)
	}
	// Predicted rows must stay inside the analytical bracket of their
	// configuration.
	for _, i := range hybrid.indices() {
		hr := hybrid.rows[i]
		if !hr.Predicted {
			continue
		}
		cfg := hr.Config
		bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for _, w := range tinySuite() {
			prog, err := w.Program(cfg.Core.VectorLength)
			if err != nil {
				t.Fatal(err)
			}
			b := bm.Bounds(prog.Stats())
			got := hr.Targets[w.Name()]
			if got < float64(b.Lower) || got > float64(b.Upper) {
				t.Errorf("predicted row %d %s: %g outside [%d, %d]", i, w.Name(), got, b.Lower, b.Upper)
			}
		}
	}
}

// TestHybridPredictsAfterWarmup: warmup rows are exact, and once the
// residual forests fit, a generous threshold answers the next generation
// without simulation.
func TestHybridPredictsAfterWarmup(t *testing.T) {
	rec := newRowRecorder()
	if _, err := Collect(context.Background(), Options{
		Seed: 3, Samples: 8, Workers: 2, Suite: tinySuite(),
		Eval: EvalHybrid, EvalWarmup: 4, EvalRefresh: 4, EvalEscalate: 5, Sink: rec,
	}); err != nil {
		t.Fatal(err)
	}
	for _, i := range rec.indices() {
		row := rec.rows[i]
		if i < 4 {
			if row.Predicted {
				t.Errorf("warmup row %d predicted", i)
			}
			continue
		}
		if !row.Predicted {
			t.Errorf("post-warmup row %d escalated despite threshold 5", i)
		}
		if row.Confidence <= 0 || row.Confidence > 1 || row.Cycles <= 0 || math.IsNaN(row.Confidence) {
			t.Errorf("predicted row %d: confidence %g, cycles %d", i, row.Confidence, row.Cycles)
		}
	}
}

// hybridFixture is the 24-config hybrid sweep the shard and resume tests
// share.
func hybridFixture(workers int) Options {
	return Options{
		Seed: 7, Samples: 24, Workers: workers, Suite: tinySuite(),
		Eval: EvalHybrid, EvalWarmup: 6, EvalRefresh: 4, EvalEscalate: 0.5,
	}
}

// Each shard of a hybrid sweep would train its own residual forests, so
// their union could never equal the unsharded run: Collect refuses.
func TestHybridRejectsSharding(t *testing.T) {
	opt := hybridFixture(1)
	opt.ShardIndex, opt.ShardCount = 0, 3
	if _, err := Collect(context.Background(), opt); err == nil {
		t.Fatal("hybrid + shard accepted")
	}
}

// A hybrid sweep interrupted after 10 rows and resumed with Prior + Skip
// must compact to the same bytes as the uninterrupted run: the resumed run
// rebuilds the residual forests by replaying the journaled rows through
// the router, so every later routing decision matches.
func TestHybridResumeEqualsUninterrupted(t *testing.T) {
	scripted := func() BatchSource {
		var cfgs []params.Config
		for i := 0; i < 24; i++ {
			cfgs = append(cfgs, params.ConfigAt(7, i))
		}
		return &scriptedBatches{batches: [][]params.Config{cfgs[:6], cfgs[6:10], cfgs[10:14], cfgs[14:18], cfgs[18:]}}
	}
	sources := []struct {
		name    string
		batches func() BatchSource
	}{
		{"fixed", func() BatchSource { return nil }},
		{"scripted", scripted},
	}
	for _, src := range sources {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", src.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				opt := hybridFixture(workers)
				opt.Batches = src.batches()
				full := filepath.Join(dir, "full.journal")
				journalCollect(t, context.Background(), full, opt, false)

				part := filepath.Join(dir, "part.journal")
				ctx, cancel := context.WithCancel(context.Background())
				iopt := hybridFixture(workers)
				iopt.Batches = src.batches()
				iopt.Progress = func(ev ProgressEvent) {
					if ev.Done >= 10 {
						cancel()
					}
				}
				journalCollect(t, ctx, part, iopt, false)
				cancel()

				prior, err := PriorRowsFromJournal(part)
				if err != nil {
					t.Fatal(err)
				}
				if len(prior) < 10 || len(prior) >= 24 {
					t.Fatalf("interrupted run journaled %d rows, want 10..23", len(prior))
				}
				ropt := hybridFixture(workers)
				ropt.Batches = src.batches()
				ropt.Prior = prior
				journalCollect(t, context.Background(), part, ropt, true)
				assertCompactEqual(t, full, part)
			})
		}
	}
}

// journalCollect runs Collect into the stall-column journal at path —
// created fresh, or reopened with the completed indices skipped when
// resume is set. A cancelled context is expected, not an error.
func journalCollect(t *testing.T, ctx context.Context, path string, opt Options, resume bool) {
	t.Helper()
	apps := SuiteNames(tinySuite())
	open := dataset.CreateStreamAux
	if resume {
		open = dataset.ResumeStreamAux
	}
	sw, err := open(path, params.FeatureNames(), apps, StallColumns(apps), "")
	if err != nil {
		t.Fatal(err)
	}
	done := sw.Done()
	opt.Sink = StreamSink{W: sw}
	opt.Skip = func(i int) bool { return done[i] }
	if _, err := Collect(ctx, opt); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}
