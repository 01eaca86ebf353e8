// Command dsebench is armdse's end-to-end benchmark. It runs one stage of
// the paper's pipeline as a workload — sweep (exact data collection),
// analyze (surrogate training and importance), adaptive (the ucb proposer
// over the hybrid evaluator) or fleet (an in-process coordinator with two
// HTTP workers) — for a fixed wall-clock window, checks every output, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": 480, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer ledger, measured from spans the benchmark records around its
// calls into each layer plus a CPU profile of the traced passes. See
// README.md for why each workload exists and which layer metric should move
// which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash dsebench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"armdse/internal/isa"
	"armdse/internal/params"
	"armdse/internal/workload"
)

// DefaultSeed is the seed benchmark figures are quoted at; HeldOutSeed is
// kept out of tuning and used only to re-check a claimed gain.
const (
	DefaultSeed = 1
	HeldOutSeed = 20241117
)

// metricDef is one declared metric; the lists below mirror BENCHMARK.json.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"rows_per_s", "rows/s", "higher"},
	{"sim_minst_per_s", "Minst/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"hybrid_mape_pct", "%", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{{"workload.program_build_s", "s", "lower"}}
	for _, app := range workload.AppNames() {
		defs = append(defs, metricDef{"simeng.minst_per_s." + app, "Minst/s", "higher"})
	}
	defs = append(defs,
		metricDef{"simeng.run_ms.p50", "ms", "lower"},
		metricDef{"simeng.run_ms.p90", "ms", "lower"})
	for _, st := range stageNames {
		defs = append(defs, metricDef{"simeng.share." + st, "ratio", "lower"})
	}
	return append(defs,
		metricDef{"sstmem.share.access", "ratio", "lower"},
		metricDef{"sstmem.share.prefetch", "ratio", "lower"},
		metricDef{"simeng.sim_cycles", "count", "lower"},
		metricDef{"simeng.retired", "count", "higher"},
		metricDef{"sstmem.l1_misses", "count", "lower"},
		metricDef{"sstmem.l2_misses", "count", "lower"},
		metricDef{"sstmem.ram_reads", "count", "lower"},
		metricDef{"orchestrate.config_ms.p50", "ms", "lower"},
		metricDef{"orchestrate.config_ms.p90", "ms", "lower"},
		metricDef{"orchestrate.worker_busy_frac", "ratio", "higher"},
		metricDef{"orchestrate.escalated_frac", "ratio", "lower"},
		metricDef{"orchestrate.escalated", "count", "lower"},
		metricDef{"dataset.put_us.p50", "us", "lower"},
		metricDef{"dataset.put_us.p90", "us", "lower"},
		metricDef{"dataset.compact_s", "s", "lower"},
		metricDef{"dataset.journal_bytes", "bytes", "lower"},
		metricDef{"search.barrier_s", "s", "lower"},
		metricDef{"search.barrier_frac", "ratio", "lower"},
		metricDef{"search.generations", "count", "lower"},
		metricDef{"dtree.train_s", "s", "lower"},
		metricDef{"dtree.importance_s", "s", "lower"},
		metricDef{"dtree.forest_s", "s", "lower"},
		metricDef{"dtree.tree_nodes", "count", "lower"},
		metricDef{"dtree.surrogate_mape_pct", "%", "lower"},
		metricDef{"fabric.rpc_ms.p50", "ms", "lower"},
		metricDef{"fabric.rpc_ms.p90", "ms", "lower"},
		metricDef{"fabric.rpcs", "count", "lower"},
		metricDef{"fabric.upload_bytes", "bytes", "lower"},
		metricDef{"fabric.merge_s", "s", "lower"},
		metricDef{"fabric.lease_grants", "count", "lower"},
		metricDef{"fabric.lease_steals", "count", "lower"},
		metricDef{"fabric.worker_busy_frac", "ratio", "higher"},
		metricDef{"obs.runlog_bytes", "bytes", "lower"},
		metricDef{"obs.trace_overhead_pct", "%", "lower"},
	)
}()

// sizes fixes how much work one pass of each workload does. Passes repeat
// until the --seconds window closes (and at least minPasses times), so a
// run's medians rest on several passes.
type sizes struct {
	setupRepeats int // setups per run; setup_s is their median
	minPasses    int // passes every run makes, whatever --seconds says
	qualPasses   int // leading passes whose rows feed the quality metrics (<= minPasses)

	sweepConfigs int // configs per sweep and fleet pass
	leaseSize    int // fleet lease size ...
	leaseChunk   int // ... and upload chunk, in configs
	fleetCheck   int // merged fleet rows re-simulated per run

	adaptBudget int // configs per adaptive pass
	adaptBatch  int // proposer batch size
	hybridCheck int // predicted adaptive rows re-simulated per run
	escCheck    int // escalated adaptive rows re-simulated per run

	analyzeRows int // bound-model dataset size
	forestTrees int // random-forest size per app
	impRepeats  int // permutation-importance shuffles per feature
	serialRows  int // rows of the Workers 1 vs 2 serialisation check
	boundCheck  int // analyze configs re-simulated to score the bound rows
}

// fullSizes use the defaults real runs use: dsecoord's leases of 64 and
// upload chunks of 16, with a pass large enough to split across both
// workers; dseanalyze's 10 importance repeats; dtree's 30-tree forest.
var fullSizes = sizes{
	setupRepeats: 11, minPasses: 2, qualPasses: 2,
	sweepConfigs: 128, leaseSize: 64, leaseChunk: 16, fleetCheck: 3,
	adaptBudget: 240, adaptBatch: 40, hybridCheck: 192, escCheck: 6,
	analyzeRows: 6000, forestTrees: 30, impRepeats: 10, serialRows: 2000, boundCheck: 128,
}

// tinySizes keep the smoke test fast; they exercise every code path.
var tinySizes = sizes{
	setupRepeats: 1, minPasses: 3, qualPasses: 2,
	sweepConfigs: 6, leaseSize: 2, leaseChunk: 1, fleetCheck: 1,
	adaptBudget: 60, adaptBatch: 20, hybridCheck: 3, escCheck: 2,
	analyzeRows: 300, forestTrees: 2, impRepeats: 1, serialRows: 100, boundCheck: 2,
}

// threads is the simulation and HTTP concurrency every workload uses: the
// benchmark host has two cores.
const threads = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints the result line. It
// returns 0 only when every correctness check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, analyze, adaptive or fleet")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", HeldOutSeed))
	seconds := fs.Float64("seconds", 12, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports the per-layer ledger")
	out := fs.String("out", ".bench_out", "directory for the Chrome trace and the run's scratch files")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "dsebench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "dsebench: unknown --workload %q (want sweep, analyze, adaptive or fleet)\n", *name)
		return 2
	}
	sz := fullSizes
	if *tiny {
		sz = tinySizes
	}
	b, err := newBench(*seed, *seconds, *trace == 1, sz, *out, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dsebench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)
	res, err := b.measure(w(), *name)
	if err != nil {
		fmt.Fprintln(stderr, "dsebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dsebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workloadImpl{
	"sweep":    func() workloadImpl { return &sweepWL{} },
	"fleet":    func() workloadImpl { return &sweepWL{fleet: true} },
	"adaptive": func() workloadImpl { return &adaptiveWL{} },
	"analyze":  func() workloadImpl { return &analyzeWL{} },
}

// workloadImpl is one workload. setup runs sizes.setupRepeats times before
// the timed window (only the last result is kept); pass runs one unit of
// timed work; finish scores quality and fills the per-layer ledger once
// the window has closed.
type workloadImpl interface {
	setup(b *bench) error
	pass(b *bench, k int, tr *tracer) (passResult, error)
	finish(b *bench) error
}

// passResult is one timed pass: its wall time, the rows it produced (or,
// on analyze, consumed) and the retired instructions of those rows.
type passResult struct {
	wall     float64
	rows     int
	failed   int
	insts    int64
	traced   bool
	attempts int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's shared state.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	out     string // trace output directory
	dir     string // scratch directory, removed when the run ends
	log     io.Writer

	suite []workload.Workload
	apps  []string
	vls   []int
	insts map[progKey]int64           // Program.DynamicInsts per (app, VL)
	stats map[progKey]isa.StreamStats // Program.Stats per (app, VL), the bound model's input

	e2e    map[string]float64
	layer  map[string]float64
	checks []string // failed correctness checks
	sha256 string   // CSV digest of pass 0's dataset

	spans   *tracer // every traced pass's spans, written at the end
	profile profileShares
}

type progKey struct {
	app string
	vl  int
}

func newBench(seed int64, seconds float64, traced bool, sz sizes, out string, log io.Writer) (*bench, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		seed: seed, seconds: seconds, traced: traced, sz: sz, out: out, dir: dir, log: log,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		b.spans = newTracer()
	}
	for _, v := range params.Space()[params.FVectorLength].Values() {
		b.vls = append(b.vls, int(v))
	}
	return b, nil
}

// failf records a failed correctness check; the run then exits non-zero.
func (b *bench) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(b.log, "dsebench: check failed:", msg)
	b.checks = append(b.checks, msg)
}

// passSeed derives pass k's workload seed, so every pass samples fresh
// configurations and the same --seed always yields the same sequence.
func passSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// passDir is pass k's scratch directory.
func (b *bench) passDir(k int) (string, error) {
	d := filepath.Join(b.dir, fmt.Sprintf("pass%03d", k))
	return d, os.MkdirAll(d, 0o755)
}

// buildPrograms does the per-program work that precedes a collection: it
// runs each test-suite app's functional validation, and builds and
// materializes the instruction arena of every (app, VL) pair, recording
// each program's retired-instruction count and instruction-mix statistics.
// Collect repeats exactly this work at the start of every run.
func (b *bench) buildPrograms(tr *tracer) error {
	b.suite = workload.TestSuite()
	b.apps = make([]string, len(b.suite))
	b.insts = map[progKey]int64{}
	b.stats = map[progKey]isa.StreamStats{}
	var build time.Duration
	for i, w := range b.suite {
		b.apps[i] = w.Name()
		sp := tr.begin("workload.Validate", 0, int64(i))
		err := w.Validate()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s failed validation: %w", w.Name(), err)
		}
		for _, vl := range b.vls {
			sp := tr.begin("workload.Program", 0, int64(vl))
			t0 := time.Now()
			p, err := w.Program(vl)
			if err == nil {
				p.Materialize(0)
			}
			build += time.Since(t0)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s at VL %d: %w", w.Name(), vl, err)
			}
			b.insts[progKey{w.Name(), vl}] = p.DynamicInsts()
			b.stats[progKey{w.Name(), vl}] = p.Stats()
		}
	}
	b.layer["workload.program_build_s"] = build.Seconds()
	return nil
}

// rowInsts is the retired-instruction count of simulating the whole suite
// on cfg.
func (b *bench) rowInsts(cfg params.Config) int64 {
	var n int64
	for _, app := range b.apps {
		n += b.insts[progKey{app, cfg.Core.VectorLength}]
	}
	return n
}

// measure runs setup, the timed window and finish, and assembles the result.
func (b *bench) measure(w workloadImpl, name string) (result, error) {
	// Every setup and every pass starts from a collected heap, as a fresh
	// dsegen process would, so one repeat's garbage does not inflate the
	// next one's peak RSS or GC work.
	var setups []float64
	for r := 0; r < b.sz.setupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// In a traced run the passes alternate untraced/traced, so the spans'
	// cost shows as obs.trace_overhead_pct without a second process.
	var passes []passResult
	start := time.Now()
	for k := 0; k < b.sz.minPasses || time.Since(start).Seconds() < b.seconds; k++ {
		runtime.GC()
		var tr *tracer
		var prof *profileRun
		if b.traced && k%2 == 1 {
			tr = b.spans
			var err error
			if prof, err = startProfile(); err != nil {
				return result{}, err
			}
		}
		p, err := w.pass(b, k, tr)
		if prof != nil {
			if perr := prof.stopInto(&b.profile); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return result{}, fmt.Errorf("%s pass %d: %w", name, k, err)
		}
		p.traced = tr != nil
		passes = append(passes, p)
		fmt.Fprintf(b.log, "dsebench: pass %d traced=%t wall=%.4fs rows=%d insts=%d\n", k, p.traced, p.wall, p.rows, p.insts)
	}
	// The peak is read before finish: its quality re-simulations are the
	// benchmark's own checks, not work of the workload.
	b.e2e["peak_rss_mb"] = peakRSSMiB()
	if err := w.finish(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}

	res := result{Correct: len(b.checks) == 0, Metrics: map[string]metricValue{}}
	// Throughput pools the untraced passes (total work over total time):
	// pass costs vary with the configs each pass samples, and on adaptive
	// they are bimodal, so a median would flip between modes.
	var wall, rows, insts float64
	var untraced []float64
	for _, p := range passes {
		res.Attempted += p.attempts
		res.Failed += p.failed
		if p.traced {
			continue
		}
		untraced = append(untraced, p.wall)
		wall += p.wall
		rows += float64(p.rows)
		insts += float64(p.insts)
	}
	b.e2e["setup_s"] = median(setups)
	b.e2e["wall_s"] = wall / float64(len(untraced))
	b.e2e["rows_per_s"] = rows / wall
	b.e2e["sim_minst_per_s"] = insts / wall / 1e6

	if !b.traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{b.e2e[d.name], d.unit}
		}
		b.logSummary(name, res)
		return res, nil
	}
	var tracedWalls []float64
	for _, p := range passes {
		if p.traced {
			tracedWalls = append(tracedWalls, p.wall)
		}
	}
	b.layer["obs.trace_overhead_pct"] = 100 * (median(tracedWalls)/median(untraced) - 1)
	b.profile.into(b.layer)
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{b.layer[d.name], d.unit}
	}
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.trace.json", name, b.seed))
	if err := b.spans.writeChrome(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.log, "dsebench: trace written to %s\n", path)
	b.logSummary(name, res)
	return res, nil
}

// logSummary prints the dataset fingerprint and a human-readable metric
// table to the log (standard error), ahead of the result line.
func (b *bench) logSummary(name string, res result) {
	fmt.Fprintf(b.log, "dsebench: workload=%s seed=%d dataset_sha256=%s correct=%t attempted=%d failed=%d\n",
		name, b.seed, b.sha256, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.log, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated q-quantile of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// profileRun is a CPU profile in progress, buffered in memory.
type profileRun struct {
	buf bytes.Buffer
}

func startProfile() (*profileRun, error) {
	p := &profileRun{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stopInto ends the profile and adds its samples to acc.
func (p *profileRun) stopInto(acc *profileShares) error {
	pprof.StopCPUProfile()
	return acc.add(p.buf.Bytes())
}
