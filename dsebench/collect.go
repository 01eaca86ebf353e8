package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/obs"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
)

// collectSpec is one single-process collection, run the way dsegen runs
// it: rows journaled through a StreamSink, the JSONL runlog on, the journal
// compacted to CSV at the end.
type collectSpec struct {
	name     string // file and span prefix
	seed     int64
	samples  int
	meta     string // journal identity stamp, as dsegen writes it
	eval     string
	escalate float64
	batches  *timedBatches // nil for a fixed sweep
	search   string        // the proposer's digest, with batches
}

// collectOut is a finished collection and what the ledger needs of it.
type collectOut struct {
	wall         float64
	data         *dataset.Dataset
	failed       int
	rows         []rowRecord // sorted by index
	csvPath      string
	runlogPath   string
	reg          *obs.Registry
	putSec       []float64
	compactSec   float64
	journalBytes int64
}

// collect runs spec as pass k. The wall time covers journal and runlog
// creation, Collect, and compaction to CSV.
func (b *bench) collect(k int, tr *tracer, spec collectSpec) (collectOut, error) {
	dir, err := b.passDir(k)
	if err != nil {
		return collectOut{}, err
	}
	out := collectOut{csvPath: filepath.Join(dir, spec.name+".csv")}
	journal := out.csvPath + ".journal"
	out.runlogPath = out.csvPath + ".runlog.jsonl"

	root := tr.begin(spec.name+".pass", 0, int64(k))
	defer tr.end(root)
	t0 := time.Now()
	sw, err := dataset.CreateStreamAux(journal, params.FeatureNames(), b.apps, orchestrate.StallColumns(b.apps), spec.meta)
	if err != nil {
		return out, err
	}
	rj, err := obs.CreateJournal(out.runlogPath)
	if err != nil {
		sw.Close()
		return out, err
	}
	defer rj.Close()
	out.reg = obs.NewRegistry(threads)
	tel := orchestrate.NewTelemetry(out.reg, rj)
	opt := orchestrate.Options{
		Seed: spec.seed, Samples: spec.samples, Workers: threads, Suite: b.suite,
		Eval: spec.eval, EvalEscalate: spec.escalate, Validate: true, Telemetry: tel,
	}
	if spec.batches != nil {
		tel.Search = spec.search
		opt.Batches = spec.batches
	}
	if err := tel.JournalMeta(spec.seed, spec.samples, threads, 0, 0, b.apps); err != nil {
		sw.Close()
		return out, err
	}
	sp := tr.begin("orchestrate.Collect", root, int64(k))
	sink := &recordingSink{inner: orchestrate.StreamSink{W: sw}, tr: tr, parent: sp}
	if spec.batches != nil {
		spec.batches.tr, spec.batches.parent = tr, sp
	}
	opt.Sink = sink
	res, collectErr := orchestrate.Collect(context.Background(), opt)
	tr.end(sp)
	if err := sw.Close(); err != nil {
		return out, err
	}
	if collectErr != nil {
		return out, collectErr
	}
	if out.journalBytes, err = fileSize(journal); err != nil {
		return out, err
	}

	sp = tr.begin("dataset.CompactStream", root, int64(k))
	tc := time.Now()
	out.data, out.failed, err = dataset.CompactStream(journal)
	if err == nil {
		err = out.data.SaveFile(out.csvPath)
	}
	out.compactSec = time.Since(tc).Seconds()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if err := os.Remove(journal); err != nil {
		return out, err
	}
	if err := tel.JournalSummary(out.data.Len(), out.failed, time.Since(t0)); err != nil {
		return out, err
	}
	if err := rj.Close(); err != nil {
		return out, err
	}
	out.wall = time.Since(t0).Seconds()

	if res.Done != spec.samples || out.data.Len()+out.failed != spec.samples {
		b.failf("%s pass %d: %d configs done, %d rows + %d failed, want %d", spec.name, k, res.Done, out.data.Len(), out.failed, spec.samples)
	}
	out.rows = sink.rows
	sort.Slice(out.rows, func(i, j int) bool { return out.rows[i].index < out.rows[j].index })
	out.putSec = sink.putSec
	return out, nil
}

// runlogConfig is one "config" record of the JSONL runlog.
type runlogConfig struct {
	Index  int     `json:"index"`
	WallMs float64 `json:"wall_ms"`
	Cycles int64   `json:"cycles"`
	Failed bool    `json:"failed"`
	Eval   string  `json:"eval"`
	Apps   []struct {
		App    string  `json:"app"`
		WallMs float64 `json:"wall_ms"`
		Cycles int64   `json:"cycles"`
		Stalls []int64 `json:"stalls"`
	} `json:"apps"`
}

// readRunlog returns the runlog's config records and its size in bytes.
func readRunlog(path string) ([]runlogConfig, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var recs []runlogConfig
	var size int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		size += int64(len(line)) + 1
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if head.Type != "config" {
			continue
		}
		var rec runlogConfig
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, size, sc.Err()
}

// checkStalls is the sweep's correctness gate on the runlog: one record per
// sample, and every app's stall vector summing to that app's cycles.
func (b *bench) checkStalls(name string, k int, recs []runlogConfig, samples int) {
	if len(recs) != samples {
		b.failf("%s pass %d: runlog has %d config records, want %d", name, k, len(recs), samples)
	}
	for _, r := range recs {
		for _, a := range r.Apps {
			var sum int64
			for _, s := range a.Stalls {
				sum += s
			}
			if sum != a.Cycles {
				b.failf("%s pass %d: config %d %s stalls sum to %d, cycles %d", name, k, r.Index, a.App, sum, a.Cycles)
			}
		}
	}
}

// collectLedger accumulates the per-layer samples of traced collection
// passes.
type collectLedger struct {
	passes        int
	wall          float64
	putSec        []float64
	configMs      []float64 // exact, from runlogs
	runMs         []float64
	configBuckets []int64 // log2 histograms summed over passes, where no runlog exists (fleet)
	runBuckets    []int64
	configSum     float64 // ms
	appWallMs     map[string]float64
	appInsts      map[string]int64
	compactSec    float64
	journalBytes  float64
	runlogBytes   float64
}

// addRunlog adds one traced pass's runlog records. Only records of exactly
// simulated configs feed the simulator metrics; predicted ones still count
// as orchestrate work.
func (l *collectLedger) addRunlog(b *bench, recs []runlogConfig, vlOf map[int]int) {
	if l.appWallMs == nil {
		l.appWallMs, l.appInsts = map[string]float64{}, map[string]int64{}
	}
	for _, r := range recs {
		l.configMs = append(l.configMs, r.WallMs)
		l.configSum += r.WallMs
		if r.Eval == "predicted" || r.Failed {
			continue
		}
		for _, a := range r.Apps {
			l.runMs = append(l.runMs, a.WallMs)
			l.appWallMs[a.App] += a.WallMs
			l.appInsts[a.App] += b.insts[progKey{a.App, vlOf[r.Index]}]
		}
	}
}

// into stores the ledger's metrics in m.
func (l *collectLedger) into(m map[string]float64, apps []string) {
	n := float64(max(l.passes, 1))
	m["dataset.put_us.p50"] = 1e6 * quantile(l.putSec, 0.5)
	m["dataset.put_us.p90"] = 1e6 * quantile(l.putSec, 0.9)
	m["dataset.compact_s"] = l.compactSec / n
	m["dataset.journal_bytes"] = l.journalBytes / n
	m["obs.runlog_bytes"] = l.runlogBytes / n
	m["orchestrate.config_ms.p50"] = msQuantile(l.configMs, l.configBuckets, 0.5)
	m["orchestrate.config_ms.p90"] = msQuantile(l.configMs, l.configBuckets, 0.9)
	if l.wall > 0 {
		m["orchestrate.worker_busy_frac"] = l.configSum / 1e3 / (threads * l.wall)
	}
	m["simeng.run_ms.p50"] = msQuantile(l.runMs, l.runBuckets, 0.5)
	m["simeng.run_ms.p90"] = msQuantile(l.runMs, l.runBuckets, 0.9)
	for _, app := range apps {
		if w := l.appWallMs[app]; w > 0 {
			m["simeng.minst_per_s."+app] = float64(l.appInsts[app]) / w / 1e3
		}
	}
}

// msQuantile is the q-quantile in milliseconds of exact samples or, when
// there are none, of nanosecond log2 histogram buckets (interpolated by
// obs.QuantileFromBuckets).
func msQuantile(samples []float64, bucketsNs []int64, q float64) float64 {
	if len(samples) == 0 && len(bucketsNs) > 0 {
		return obs.QuantileFromBuckets(bucketsNs, q) / 1e6
	}
	return quantile(samples, q)
}

// addBuckets adds histogram buckets src into *dst.
func addBuckets(dst *[]int64, src []int64) {
	if len(*dst) < len(src) {
		*dst = append(*dst, make([]int64, len(src)-len(*dst))...)
	}
	for i, c := range src {
		(*dst)[i] += c
	}
}

// fingerprint records pass 0's exact counts: simulated cycles and retired
// instructions of the exactly simulated rows, the memory backend's miss
// counters, and the dataset CSV's digest.
func (b *bench) fingerprint(reg *obs.Registry, recs []runlogConfig, vlOf map[int]int, csvPath string) error {
	var cycles, retired int64
	for _, r := range recs {
		if r.Eval == "predicted" || r.Failed {
			continue
		}
		for _, a := range r.Apps {
			cycles += a.Cycles
			retired += b.insts[progKey{a.App, vlOf[r.Index]}]
		}
	}
	b.layer["simeng.sim_cycles"] = float64(cycles)
	b.layer["simeng.retired"] = float64(retired)
	snap := reg.Snapshot()
	b.layer["sstmem.l1_misses"] = familyTotal(snap, "armdse_mem_l1_misses_total")
	b.layer["sstmem.l2_misses"] = familyTotal(snap, "armdse_mem_l2_misses_total")
	b.layer["sstmem.ram_reads"] = familyTotal(snap, "armdse_mem_ram_reads_total")
	var err error
	b.sha256, err = fileSHA256(csvPath)
	return err
}

// familyTotal sums a counter family's series, skipping the per-worker
// breakdown series a fleet snapshot adds.
func familyTotal(snap obs.Snapshot, name string) float64 {
	var total float64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if !hasLabel(s.Labels, "worker") {
				total += s.Value
			}
		}
	}
	return total
}

func hasLabel(ls []obs.Label, key string) bool {
	for _, l := range ls {
		if l.Key == key {
			return true
		}
	}
	return false
}

// vlIndex maps each row's index to its vector length.
func vlIndex(rows []rowRecord) map[int]int {
	m := make(map[int]int, len(rows))
	for _, r := range rows {
		m[r.index] = r.cfg.Core.VectorLength
	}
	return m
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
