package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/obs"
	"armdse/internal/simeng"
)

// The coordinator side of the fabric. A Coordinator owns the lease table,
// one on-disk journal per lease (the streaming merge sink: workers upload
// chunk by chunk and every committed row is on disk before the cursor
// moves), the obs metrics/status surface, and the JSONL runlog. When the
// table completes, Merge compacts the per-lease journals into the final
// dataset with the same identity and conflict checks a single-process
// resume gets.

// CoordConfig configures a Coordinator. Zero values get defaults.
type CoordConfig struct {
	// Spec is the run identity; required (see NewSpec).
	Spec Spec
	// Out is the final dataset CSV path; required. Per-lease journals live
	// in Dir (default Out + ".fabric") until Merge compacts them.
	Out string
	Dir string
	// LeaseSize is the config count per initial lease (default 64); Chunk
	// is the advance/steal granularity (default 16, clamped to LeaseSize).
	LeaseSize int
	Chunk     int
	// Expiry is the heartbeat deadline after which an unrefreshed lease is
	// requeued (default 30s).
	Expiry time.Duration
	// HeartbeatEvery spaces runlog heartbeat records (default 5s).
	HeartbeatEvery time.Duration
	// Registry receives the fleet metrics; nil allocates a private one.
	Registry *obs.Registry
	// Runlog, when non-nil, receives the coordinator's JSONL records (meta,
	// lease events, heartbeats, summary).
	Runlog *obs.Journal
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
}

// Coordinator runs one fleet collection. Create with NewCoordinator, mount
// Handler on an HTTP server, then Wait + Merge.
type Coordinator struct {
	spec   Spec
	digest string
	out    string
	dir    string
	table  *Table
	reg    *obs.Registry
	runlog *obs.Journal
	logw   io.Writer
	hbEach time.Duration
	start  time.Time

	doneOnce sync.Once
	doneCh   chan struct{}

	// mu guards the journals, per-worker stats, row totals and runlog
	// clock. Never held while taking the table lock.
	mu       sync.Mutex
	journals map[int]*dataset.StreamWriter
	paths    map[int]string
	workers  map[string]*fleetWorker
	rows     int // journaled configs, duplicates excluded
	failed   int // journaled failed configs
	cycles   int64
	lastHB   time.Time
	merged   bool

	mGrants, mExpiries, mSteals *obs.Counter
	mRows                       *obs.Counter
	gPending, gActive, gDone    *obs.Gauge
	gConfigs, gTotal            *obs.Gauge
	gRPS, gETA, gCycles         *obs.Gauge
}

// fleetWorker tracks one worker's contribution for per-worker rows/sec,
// plus the latest telemetry snapshot it piggybacked on an advance or
// heartbeat.
type fleetWorker struct {
	rows     int64
	first    time.Time
	lastSeen time.Time
	counter  *obs.Counter
	tel      *WorkerTelemetry
	telAt    time.Time
}

// NewCoordinator builds the coordinator state: the lease table over the
// spec's index space, the journal directory, the metric handles, and the
// runlog meta record.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Spec.Samples <= 0 {
		return nil, fmt.Errorf("fabric: coordinator spec has %d samples", cfg.Spec.Samples)
	}
	if cfg.Out == "" {
		return nil, fmt.Errorf("fabric: coordinator needs an output path")
	}
	if cfg.LeaseSize <= 0 {
		cfg.LeaseSize = 64
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 16
	}
	if cfg.Chunk > cfg.LeaseSize {
		cfg.Chunk = cfg.LeaseSize
	}
	if cfg.Expiry <= 0 {
		cfg.Expiry = 30 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 5 * time.Second
	}
	if cfg.Dir == "" {
		cfg.Dir = cfg.Out + ".fabric"
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry(1)
	}
	table, err := NewTable(cfg.Spec.Samples, cfg.LeaseSize, cfg.Chunk, cfg.Expiry)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	r := cfg.Registry
	c := &Coordinator{
		spec:      cfg.Spec,
		digest:    cfg.Spec.Digest(),
		out:       cfg.Out,
		dir:       cfg.Dir,
		table:     table,
		reg:       r,
		runlog:    cfg.Runlog,
		logw:      cfg.Log,
		hbEach:    cfg.HeartbeatEvery,
		start:     time.Now(),
		doneCh:    make(chan struct{}),
		journals:  make(map[int]*dataset.StreamWriter),
		paths:     make(map[int]string),
		workers:   make(map[string]*fleetWorker),
		lastHB:    time.Now(),
		mGrants:   r.Counter("armdse_fabric_lease_grants_total", "Leases granted, including re-grants after expiry."),
		mExpiries: r.Counter("armdse_fabric_lease_expirations_total", "Leases requeued after a missed heartbeat deadline."),
		mSteals:   r.Counter("armdse_fabric_lease_steals_total", "Lease splits that moved a straggler's un-started tail to an idle worker."),
		mRows:     r.Counter("armdse_fabric_rows_total", "Configurations journaled across the fleet."),
		gPending:  r.Gauge("armdse_fabric_leases_pending", "Leases queued, unassigned."),
		gActive:   r.Gauge("armdse_fabric_leases_active", "Leases currently assigned to a worker."),
		gDone:     r.Gauge("armdse_fabric_leases_completed", "Leases fully uploaded."),
		gConfigs:  r.Gauge("armdse_fabric_done", "Configurations uploaded so far."),
		gTotal:    r.Gauge("armdse_fabric_total", "Configurations in the fleet run."),
		gRPS:      r.Gauge("armdse_fabric_rows_per_second", "Mean fleet upload rate."),
		gETA:      r.Gauge("armdse_fabric_eta_seconds", "Estimated wall time to fleet completion."),
		gCycles:   r.Gauge("armdse_fabric_cycles_total", "Core cycles simulated across the fleet."),
	}
	c.gTotal.SetInt(int64(cfg.Spec.Samples))
	if err := c.journalMeta(); err != nil {
		return nil, err
	}
	return c, nil
}

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Done returns a channel closed when every lease has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the fleet completes or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StartExpirySweep requeues stale leases every interval until the returned
// stop function is called — the liveness backstop for a fleet whose
// surviving workers are all mid-chunk (lease acquisition also expires
// lazily, so the sweep only bounds detection latency).
func (c *Coordinator) StartExpirySweep(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				c.noteEvents(c.table.ExpireStale(now), now)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Handler returns the coordinator's HTTP surface: the fabric protocol
// endpoints plus the standard obs telemetry mux (/metrics, /status,
// /debug/vars, /debug/pprof) on everything else.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/spec", c.handleSpec)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/advance", c.handleAdvance)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	// /metrics is overridden ahead of the obs catch-all so the exposition
	// carries both the coordinator's own registry and the fleet-merged
	// armdse_fleet_* view of every worker's piggybacked snapshot.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, c.reg.Snapshot())
		_ = obs.WritePrometheus(w, c.FleetSnapshot())
	})
	mux.Handle("/", obs.Handler(c.reg, func() any { return c.Status() }))
	return mux
}

// maxBody bounds request bodies: a chunk of rows is a few hundred KB at
// most, so 32 MiB is far past any legitimate message.
const maxBody = 32 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, c.spec)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeLeaseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Identity gate: a worker from a different run (seed, samples, suite)
	// or a different build (column layout) is rejected before it can hold
	// a lease, let alone contribute a row.
	if req.Meta != c.spec.Meta {
		http.Error(w, fmt.Sprintf("fabric: worker run identity %q, coordinator is %q", req.Meta, c.spec.Meta),
			http.StatusForbidden)
		return
	}
	if req.Columns != c.digest {
		http.Error(w, fmt.Sprintf("fabric: worker column layout %s, coordinator is %s (mismatched build?)",
			req.Columns, c.digest), http.StatusForbidden)
		return
	}
	now := time.Now()
	lease, done, events := c.table.Acquire(req.Worker, now)
	c.noteEvents(events, now)
	c.touchWorker(req.Worker, now)
	switch {
	case done:
		c.signalDone()
		writeJSON(w, LeaseResponse{Done: true})
	case lease == nil:
		writeJSON(w, LeaseResponse{Wait: true})
	default:
		writeJSON(w, LeaseResponse{Lease: lease})
	}
}

func (c *Coordinator) handleAdvance(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeAdvanceRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A malformed telemetry payload rejects the advance before any row is
	// committed, keeping the strict-wire contract symmetric with the rest of
	// the message.
	tel, err := decodeObs(req.Obs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	var journaled int
	var journaledFailed int
	var journaledCycles int64
	// The commit callback runs inside the table lock after the cursor move
	// is validated and before it happens: the chunk's rows hit the lease
	// journal (flushed per row) or the advance is rejected whole. A crash
	// between commit and response just means the worker re-uploads a
	// byte-identical chunk, which the journal dedupes.
	commit := func(lo, prev, hi int) error {
		if len(req.Rows) != req.Cursor-prev {
			return fmt.Errorf("%w: %d rows for range [%d, %d)", ErrBadAdvance, len(req.Rows), prev, req.Cursor)
		}
		for i := range req.Rows {
			if req.Rows[i].Index != prev+i {
				return fmt.Errorf("%w: row %d has index %d, want %d", ErrBadAdvance, i, req.Rows[i].Index, prev+i)
			}
		}
		jw, err := c.journalFor(req.LeaseID)
		if err != nil {
			return err
		}
		for _, row := range req.Rows {
			targets, aux, err := c.rowMaps(row)
			if err != nil {
				return err
			}
			if err := jw.AppendFull(row.Index, row.Failed, row.Features, targets, aux); err != nil {
				return err
			}
			journaled++
			journaledCycles += row.Cycles
			if row.Failed {
				journaledFailed++
			}
		}
		return nil
	}
	hi, done, events, err := c.table.Advance(req.LeaseID, req.Epoch, req.Worker, req.Cursor, now, commit)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	c.noteTelemetry(req.Worker, tel, now)
	c.noteRows(req.Worker, journaled, journaledFailed, journaledCycles, now)
	c.noteEvents(events, now)
	runDone := c.table.Done()
	if runDone {
		c.signalDone()
	}
	writeJSON(w, AdvanceResponse{Hi: hi, Done: done, RunDone: runDone})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeHeartbeatRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tel, err := decodeObs(req.Obs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	hi, err := c.table.Heartbeat(req.LeaseID, req.Epoch, req.Worker, now)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	c.noteTelemetry(req.Worker, tel, now)
	c.touchWorker(req.Worker, now)
	writeJSON(w, HeartbeatResponse{Hi: hi})
}

// statusFor maps lease-table errors to HTTP statuses: stale assignments are
// conflicts (the worker drops the lease and re-acquires), unknown leases
// are not-found, malformed advances are bad requests.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrStaleLease):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownLease):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// journalFor returns (creating on first use) the lease's journal.
func (c *Coordinator) journalFor(id int) (*dataset.StreamWriter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if jw, ok := c.journals[id]; ok {
		return jw, nil
	}
	path := filepath.Join(c.dir, fmt.Sprintf("lease-%04d.journal", id))
	jw, err := dataset.CreateStreamAux(path, c.spec.Features, c.spec.Apps, c.spec.Aux, c.spec.Meta)
	if err != nil {
		return nil, err
	}
	c.journals[id] = jw
	c.paths[id] = path
	return jw, nil
}

// rowMaps rebuilds the journal's column-keyed maps from a wire row's
// spec-ordered vectors.
func (c *Coordinator) rowMaps(row WireRow) (targets, aux map[string]float64, err error) {
	if len(row.Features) != len(c.spec.Features) {
		return nil, nil, fmt.Errorf("fabric: row %d has %d features, spec has %d", row.Index, len(row.Features), len(c.spec.Features))
	}
	if row.Failed {
		return nil, nil, nil
	}
	if len(row.Targets) != len(c.spec.Apps) || len(row.Aux) != len(c.spec.Aux) {
		return nil, nil, fmt.Errorf("fabric: row %d has %d targets / %d aux, spec has %d / %d",
			row.Index, len(row.Targets), len(row.Aux), len(c.spec.Apps), len(c.spec.Aux))
	}
	targets = make(map[string]float64, len(c.spec.Apps))
	for i, app := range c.spec.Apps {
		targets[app] = row.Targets[i]
	}
	aux = make(map[string]float64, len(c.spec.Aux))
	for i, name := range c.spec.Aux {
		aux[name] = row.Aux[i]
	}
	return targets, aux, nil
}

func (c *Coordinator) signalDone() {
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// touchWorker refreshes the worker's last-seen clock.
func (c *Coordinator) touchWorker(name string, now time.Time) {
	c.mu.Lock()
	c.workerLocked(name, now).lastSeen = now
	c.mu.Unlock()
}

// workerLocked resolves (creating) the per-worker stats. Caller holds mu.
func (c *Coordinator) workerLocked(name string, now time.Time) *fleetWorker {
	fw, ok := c.workers[name]
	if !ok {
		fw = &fleetWorker{
			first:   now,
			counter: c.reg.Counter("armdse_fabric_worker_rows_total", "Configurations journaled per worker.", obs.L("worker", name)),
		}
		c.workers[name] = fw
	}
	return fw
}

// noteRows folds one committed chunk into the fleet totals, gauges and —
// when the runlog heartbeat is due — the runlog.
func (c *Coordinator) noteRows(worker string, rows, failed int, cycles int64, now time.Time) {
	if rows == 0 {
		return
	}
	_, _, _, doneConfigs := c.table.Counts()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows += rows
	c.failed += failed
	c.cycles += cycles
	fw := c.workerLocked(worker, now)
	fw.rows += int64(rows)
	fw.lastSeen = now
	fw.counter.Add(0, int64(rows))
	c.mRows.Add(0, int64(rows))

	elapsed := now.Sub(c.start)
	rps := float64(doneConfigs) / elapsed.Seconds()
	c.gConfigs.SetInt(int64(doneConfigs))
	c.gRPS.Set(rps)
	c.gCycles.SetInt(c.cycles)
	eta := 0.0
	if doneConfigs > 0 && doneConfigs < c.spec.Samples {
		eta = elapsed.Seconds() * float64(c.spec.Samples-doneConfigs) / float64(doneConfigs)
	}
	c.gETA.Set(eta)

	if c.runlog != nil && (now.Sub(c.lastHB) >= c.hbEach || doneConfigs == c.spec.Samples) {
		c.lastHB = now
		c.writeRunlog(coordHeartbeat{
			Type: "heartbeat", ElapsedS: round3(elapsed.Seconds()),
			Done: doneConfigs, Failed: c.failed, Total: c.spec.Samples,
			RowsPerSec: round3(rps), ETAS: round3(eta), Cycles: c.cycles,
		})
		c.writeUtilLocked(now)
	}
}

// noteEvents records lease state transitions: counters, state gauges, the
// runlog and the progress log.
func (c *Coordinator) noteEvents(events []LeaseEvent, now time.Time) {
	if len(events) == 0 {
		return
	}
	pending, active, completed, _ := c.table.Counts()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gPending.SetInt(int64(pending))
	c.gActive.SetInt(int64(active))
	c.gDone.SetInt(int64(completed))
	for _, ev := range events {
		switch ev.Event {
		case "grant":
			c.mGrants.Inc(0)
		case "expire":
			c.mExpiries.Inc(0)
		case "steal":
			c.mSteals.Inc(0)
		}
		if c.runlog != nil && ev.Event != "advance" {
			c.writeRunlog(coordLease{
				Type: "lease", Event: ev.Event, Lease: ev.Lease, Epoch: ev.Epoch,
				Worker: ev.Worker, Lo: ev.Lo, Hi: ev.Hi, Cursor: ev.Cursor,
				ElapsedS: round3(now.Sub(c.start).Seconds()),
			})
		}
		if c.logw != nil && ev.Event != "advance" {
			fmt.Fprintf(c.logw, "lease %d %s [%d,%d) cursor %d worker %s\n",
				ev.Lease, ev.Event, ev.Lo, ev.Hi, ev.Cursor, ev.Worker)
		}
	}
}

// Merge closes the per-lease journals and compacts them into the final
// dataset, verifying the merge covers the whole index space. Call after
// Wait; the failed count reports configurations dropped by the validation
// gate, exactly as a single-process compaction would.
func (c *Coordinator) Merge() (*dataset.Dataset, int, error) {
	c.mu.Lock()
	if c.merged {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("fabric: coordinator already merged")
	}
	c.merged = true
	var paths []string
	for id, jw := range c.journals {
		if err := jw.Close(); err != nil {
			c.mu.Unlock()
			return nil, 0, err
		}
		paths = append(paths, c.paths[id])
	}
	c.mu.Unlock()
	sort.Strings(paths)
	ds, failed, err := dataset.MergeStreams(paths)
	if err != nil {
		return nil, 0, err
	}
	if got := ds.Len() + failed; got != c.spec.Samples {
		return nil, 0, fmt.Errorf("fabric: merged %d configurations, run has %d", got, c.spec.Samples)
	}
	if c.runlog != nil {
		lines, bytes := c.runlog.Stats()
		c.mu.Lock()
		c.writeRunlog(coordSummary{
			Type: "summary", Rows: ds.Len(), Failed: failed,
			ElapsedS: round3(time.Since(c.start).Seconds()), JournalLines: lines, JournalBytes: bytes,
		})
		c.mu.Unlock()
	}
	return ds, failed, nil
}

// Cleanup removes the per-lease journal directory — call once the merged
// dataset is safely written.
func (c *Coordinator) Cleanup() error { return os.RemoveAll(c.dir) }

// FleetWorkerStatus is one worker's row in the fleet status view. BusyS,
// UpS and BusyFrac come from the worker's piggybacked telemetry (zero until
// its first advance); Straggler marks a last-heartbeat age beyond the
// fleet's median-lag threshold.
type FleetWorkerStatus struct {
	Name       string  `json:"name"`
	Rows       int64   `json:"rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
	LastSeenS  float64 `json:"last_seen_s"`
	BusyS      float64 `json:"busy_s"`
	UpS        float64 `json:"up_s"`
	BusyFrac   float64 `json:"busy_frac"`
	Straggler  bool    `json:"straggler"`
}

// FleetStatus is the coordinator's /status payload.
type FleetStatus struct {
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Total      int     `json:"total"`
	ElapsedSec float64 `json:"elapsed_s"`
	ETASec     float64 `json:"eta_s"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Cycles     int64   `json:"cycles"`

	LeasesPending   int   `json:"leases_pending"`
	LeasesActive    int   `json:"leases_active"`
	LeasesCompleted int   `json:"leases_completed"`
	LeaseGrants     int64 `json:"lease_grants"`
	LeaseExpiries   int64 `json:"lease_expiries"`
	LeaseSteals     int64 `json:"lease_steals"`

	// StragglerLagS is the current straggler threshold:
	// max(floor, factor x median last-heartbeat age) over the fleet.
	StragglerLagS float64 `json:"straggler_lag_s"`

	Workers []FleetWorkerStatus `json:"workers,omitempty"`
	Leases  []LeaseStatus       `json:"leases,omitempty"`
}

// Status snapshots the fleet for the /status endpoint.
func (c *Coordinator) Status() FleetStatus {
	ts := c.table.Status()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := now.Sub(c.start).Seconds()
	st := FleetStatus{
		Done: ts.DoneConfigs, Failed: c.failed, Total: c.spec.Samples,
		ElapsedSec: elapsed, Cycles: c.cycles,
		LeasesPending: ts.Pending, LeasesActive: ts.Active, LeasesCompleted: ts.Completed,
		LeaseGrants: ts.Granted, LeaseExpiries: ts.Expired, LeaseSteals: ts.Stolen,
		Leases: ts.Leases,
	}
	if elapsed > 0 {
		st.RowsPerSec = float64(ts.DoneConfigs) / elapsed
	}
	if ts.DoneConfigs > 0 && ts.DoneConfigs < c.spec.Samples {
		st.ETASec = elapsed * float64(c.spec.Samples-ts.DoneConfigs) / float64(ts.DoneConfigs)
	}
	for name, fw := range c.workers {
		ws := FleetWorkerStatus{Name: name, Rows: fw.rows, LastSeenS: now.Sub(fw.lastSeen).Seconds()}
		if d := fw.lastSeen.Sub(fw.first).Seconds(); d > 0 {
			ws.RowsPerSec = float64(fw.rows) / d
		}
		if fw.tel != nil {
			ws.BusyS = float64(fw.tel.BusyNs) / 1e9
			ws.UpS = float64(fw.tel.UpNs) / 1e9
			if fw.tel.UpNs > 0 {
				ws.BusyFrac = float64(fw.tel.BusyNs) / float64(fw.tel.UpNs)
			}
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	ages := make([]float64, len(st.Workers))
	for i, ws := range st.Workers {
		ages[i] = ws.LastSeenS
	}
	flags, threshold := FlagStragglers(ages, StragglerFactor, StragglerFloorS)
	st.StragglerLagS = threshold
	for i := range st.Workers {
		st.Workers[i].Straggler = flags[i]
	}
	return st
}

// Coordinator runlog records. The shapes extend scripts/runlog.schema.json:
// the meta and summary records match dsegen's (so the generic validator's
// whole-file rules hold), heartbeats carry the fleet totals, and the lease
// record type is the fabric's own.

type coordMeta struct {
	Type         string     `json:"type"`
	Version      int        `json:"version"`
	Seed         int64      `json:"seed"`
	Samples      int        `json:"samples"`
	Workers      int        `json:"workers"`
	ShardIndex   int        `json:"shard_index"`
	ShardCount   int        `json:"shard_count"`
	Apps         []string   `json:"apps"`
	StallClasses []string   `json:"stall_classes"`
	Fabric       coordFleet `json:"fabric"`
}

type coordFleet struct {
	LeaseSize int   `json:"lease_size"`
	Chunk     int   `json:"chunk"`
	ExpiryMS  int64 `json:"expiry_ms"`
}

type coordLease struct {
	Type     string  `json:"type"`
	Event    string  `json:"event"`
	Lease    int     `json:"lease"`
	Epoch    int     `json:"epoch"`
	Worker   string  `json:"worker,omitempty"`
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	Cursor   int     `json:"cursor"`
	ElapsedS float64 `json:"elapsed_s"`
}

// coordUtil is one worker's utilization sample, journaled alongside each
// runlog heartbeat — the record dsereport turns into per-worker busy/idle
// fractions.
type coordUtil struct {
	Type       string  `json:"type"`
	Worker     string  `json:"worker"`
	ElapsedS   float64 `json:"elapsed_s"`
	Rows       int64   `json:"rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
	BusyS      float64 `json:"busy_s"`
	UpS        float64 `json:"up_s"`
	BusyFrac   float64 `json:"busy_frac"`
	LastSeenS  float64 `json:"last_seen_s"`
}

type coordHeartbeat struct {
	Type       string  `json:"type"`
	ElapsedS   float64 `json:"elapsed_s"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Total      int     `json:"total"`
	RowsPerSec float64 `json:"rows_per_sec"`
	ETAS       float64 `json:"eta_s"`
	Cycles     int64   `json:"cycles"`
}

type coordSummary struct {
	Type         string  `json:"type"`
	Rows         int     `json:"rows"`
	Failed       int     `json:"failed"`
	ElapsedS     float64 `json:"elapsed_s"`
	JournalLines int64   `json:"journal_lines"`
	JournalBytes int64   `json:"journal_bytes"`
}

// journalMeta writes the runlog's first record. Workers is 0: the fleet
// size is dynamic, discovered lease by lease.
func (c *Coordinator) journalMeta() error {
	if c.runlog == nil {
		return nil
	}
	table := c.table
	// Recover lease geometry from the table for the fabric block.
	rec := coordMeta{
		Type: "meta", Version: 1,
		Seed: c.spec.Seed, Samples: c.spec.Samples,
		Apps: c.spec.Apps, StallClasses: simeng.StallClassNames(),
		Fabric: coordFleet{Chunk: table.chunk, ExpiryMS: table.expiry.Milliseconds()},
	}
	if len(table.leases) > 0 {
		rec.Fabric.LeaseSize = table.leases[0].hi - table.leases[0].lo
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeRunlog(rec)
	return nil
}

// writeRunlog marshals and appends one runlog record. Caller holds mu.
func (c *Coordinator) writeRunlog(rec any) {
	if c.runlog == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_ = c.runlog.WriteLine(b)
}

// round3 trims a rate or seconds value to runlog precision.
func round3(v float64) float64 {
	if v != v || v > 1e18 || v < -1e18 {
		return 0
	}
	return float64(int64(v*1000+0.5)) / 1000
}
