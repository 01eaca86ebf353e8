package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"armdse/internal/obs"
	"armdse/internal/orchestrate"
)

// The worker side of the fabric: fetch the run spec, verify it against the
// local build, then lease ranges and simulate them chunk by chunk, uploading
// each chunk's rows with the cursor move that commits them. Workers are
// stateless between leases — all durable state lives in the coordinator's
// journals — so killing one at any instant loses at most the chunk it was
// simulating.

// WorkerConfig configures RunWorker. Coord is required; zero values
// elsewhere get defaults.
type WorkerConfig struct {
	// Coord is the coordinator base URL, e.g. "http://127.0.0.1:8070".
	Coord string
	// Name identifies the worker to the coordinator; default "host:pid".
	Name string
	// Threads bounds the simulation worker pool (0 = all cores).
	Threads int
	// PollEvery spaces lease polls when nothing is grantable (default 500ms).
	PollEvery time.Duration
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
	// OnChunk, when non-nil, runs before each chunk's advance is sent —
	// the fault-injection seam: returning an error makes the worker exit
	// immediately, exactly as a killed process would (rows simulated but
	// never uploaded). Arguments are the lease id and the chunk's target
	// cursor.
	OnChunk func(lease, cursor int) error
}

// RunWorker joins a fleet and works until the run completes, the context is
// cancelled, or the coordinator rejects the worker. It returns nil when the
// coordinator reports the run done.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coord == "" {
		return fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	// Every worker keeps the full single-process metrics registry and ships
	// snapshots to the coordinator piggybacked on advances and heartbeats —
	// observability only, invisible to lease state and dataset bytes.
	reg := obs.NewRegistry(threads)
	w := &worker{cfg: cfg, reg: reg, tel: orchestrate.NewTelemetry(reg, nil), start: time.Now()}

	spec, err := w.fetchSpec(ctx)
	if err != nil {
		return err
	}
	// Version-skew guard: rebuild the spec from this binary's own tables
	// and refuse to serve a coordinator whose layout differs — uploading
	// rows under a different column order would corrupt the merge.
	local := NewSpec(spec.Seed, spec.Samples, spec.Paper)
	if local.Meta != spec.Meta || local.Digest() != spec.Digest() {
		return fmt.Errorf("fabric: coordinator spec %q (columns %s) does not match this build's %q (columns %s)",
			spec.Meta, spec.Digest(), local.Meta, local.Digest())
	}
	// Mirror a single-process run's suite validation gate: only validated
	// workloads contribute rows anywhere in the fleet.
	for _, wl := range local.Suite() {
		if err := wl.Validate(); err != nil {
			return fmt.Errorf("fabric: %s failed validation: %w", wl.Name(), err)
		}
	}
	w.spec = spec
	w.logf("joined %s: %s, %d lease-able configs", cfg.Coord, spec.Meta, spec.Samples)

	for {
		resp, err := w.acquire(ctx)
		if err != nil {
			return err
		}
		switch {
		case resp.Done:
			w.logf("fleet complete (%d rows uploaded)", w.uploaded)
			return nil
		case resp.Wait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(cfg.PollEvery):
			}
		default:
			runDone, err := w.runLease(ctx, *resp.Lease)
			if err != nil {
				return err
			}
			if runDone {
				w.logf("fleet complete (%d rows uploaded)", w.uploaded)
				return nil
			}
		}
	}
}

// worker is RunWorker's state.
type worker struct {
	cfg      WorkerConfig
	spec     Spec
	uploaded int

	// Telemetry: the local obs registry (fed by the per-chunk engines via
	// tel), the moment the worker joined, and cumulative simulation time.
	// busyNs is atomic — the heartbeat goroutine snapshots it mid-chunk.
	reg    *obs.Registry
	tel    *orchestrate.Telemetry
	start  time.Time
	busyNs atomic.Int64
}

// obsPayload snapshots the worker's registry and busy/uptime counters as a
// wire telemetry payload. Encoding failures degrade to "no telemetry" —
// never to a failed advance.
func (w *worker) obsPayload() []byte {
	if w.reg == nil {
		return nil
	}
	b, err := EncodeTelemetry(WorkerTelemetry{
		BusyNs: w.busyNs.Load(),
		UpNs:   time.Since(w.start).Nanoseconds(),
		Snap:   w.reg.Snapshot(),
	})
	if err != nil {
		return nil
	}
	return b
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		fmt.Fprintf(w.cfg.Log, "worker %s: %s\n", w.cfg.Name, fmt.Sprintf(format, args...))
	}
}

// errLeaseLost marks a lease rejected as stale — the worker abandons it and
// acquires a new one; any other HTTP error is fatal.
var errLeaseLost = fmt.Errorf("fabric: lease lost")

// runLease simulates the lease chunk by chunk and reports whether its last
// advance completed the whole run. A stale rejection (the lease expired
// under us, or our tail was stolen and re-granted) abandons the lease
// without error; the rows the coordinator already committed stay.
func (w *worker) runLease(ctx context.Context, lease Lease) (runDone bool, err error) {
	w.logf("lease %d epoch %d: [%d, %d) chunk %d", lease.ID, lease.Epoch, lease.Lo, lease.Hi, lease.Chunk)
	// hi may shrink while we work (steals); advance and heartbeat responses
	// carry the current bound, applied at chunk boundaries.
	hi := int64(lease.Hi)
	cursor := lease.Lo
	for cursor < int(atomic.LoadInt64(&hi)) {
		chunkHi := cursor + lease.Chunk
		if bound := int(atomic.LoadInt64(&hi)); chunkHi > bound {
			chunkHi = bound
		}
		rows, err := w.simulateRange(ctx, lease, &hi, cursor, chunkHi)
		if err == errLeaseLost {
			w.logf("lease %d lost mid-chunk; abandoning", lease.ID)
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if w.cfg.OnChunk != nil {
			if err := w.cfg.OnChunk(lease.ID, chunkHi); err != nil {
				return false, err
			}
		}
		var resp AdvanceResponse
		status, err := w.post(ctx, "/advance", AdvanceRequest{
			LeaseID: lease.ID, Epoch: lease.Epoch, Worker: w.cfg.Name,
			Cursor: chunkHi, Rows: rows, Obs: w.obsPayload(),
		}, &resp)
		if status == http.StatusConflict {
			w.logf("lease %d reassigned; abandoning", lease.ID)
			return false, nil
		}
		if err != nil {
			return false, err
		}
		w.uploaded += len(rows)
		cursor = chunkHi
		atomic.StoreInt64(&hi, int64(resp.Hi))
		if resp.Done {
			w.logf("lease %d complete at %d", lease.ID, resp.Hi)
			return resp.RunDone, nil
		}
	}
	return false, nil
}

// simulateRange runs the collection engine over global indices [lo, hiC),
// heartbeating the lease while it works, and returns the chunk's rows in
// index order. The engine is the same staged pipeline a single-process
// sweep runs — exact evaluator, deterministic per index — so the rows are
// byte-identical to that sweep's.
func (w *worker) simulateRange(ctx context.Context, lease Lease, hi *int64, lo, hiC int) ([]WireRow, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat while simulating, at a third of the expiry deadline. A
	// stale response means the lease was reassigned (we were presumed
	// dead): cancel the chunk, the caller abandons the lease.
	var lost atomic.Bool
	var hbWG sync.WaitGroup
	if lease.ExpiryMS > 0 {
		every := time.Duration(lease.ExpiryMS) * time.Millisecond / 3
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					var resp HeartbeatResponse
					status, err := w.post(runCtx, "/heartbeat", HeartbeatRequest{
						LeaseID: lease.ID, Epoch: lease.Epoch, Worker: w.cfg.Name,
						Obs: w.obsPayload(),
					}, &resp)
					if status == http.StatusConflict || status == http.StatusNotFound {
						lost.Store(true)
						cancel()
						return
					}
					if err == nil {
						atomic.StoreInt64(hi, int64(resp.Hi))
					}
				}
			}
		}()
	}

	sink := &wireSink{spec: &w.spec, base: lo}
	eng := orchestrate.Engine{
		Batches:   &orchestrate.RangeBatches{Seed: w.spec.Seed, Lo: lo, Hi: hiC},
		Suite:     w.spec.Suite(),
		Sink:      sink,
		Workers:   w.cfg.Threads,
		Seed:      w.spec.Seed,
		Telemetry: w.tel,
	}
	simStart := time.Now()
	_, _, err := eng.Run(runCtx)
	w.busyNs.Add(time.Since(simStart).Nanoseconds())
	cancel()
	hbWG.Wait()
	if lost.Load() {
		return nil, errLeaseLost
	}
	if err != nil {
		return nil, err
	}
	return sink.rows(), nil
}

// wireSink collects engine rows as wire rows, re-based to global indices.
type wireSink struct {
	spec *Spec
	base int

	mu   sync.Mutex
	buf  []WireRow
	errs []error
}

// Put implements orchestrate.RowSink.
func (s *wireSink) Put(row orchestrate.Row) error {
	wr := WireRow{
		Index:    s.base + row.Index,
		Failed:   row.Failed(),
		Cycles:   row.Cycles,
		Features: row.Features,
	}
	if !wr.Failed {
		wr.Targets = make([]float64, len(s.spec.Apps))
		for i, app := range s.spec.Apps {
			wr.Targets[i] = row.Targets[app]
		}
		aux := row.StallAux()
		wr.Aux = make([]float64, len(s.spec.Aux))
		for i, name := range s.spec.Aux {
			wr.Aux[i] = aux[name]
		}
	}
	s.mu.Lock()
	s.buf = append(s.buf, wr)
	s.mu.Unlock()
	return nil
}

// rows returns the collected wire rows sorted by global index.
func (s *wireSink) rows() []WireRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.buf, func(i, j int) bool { return s.buf[i].Index < s.buf[j].Index })
	return s.buf
}

// fetchSpec GETs and decodes the coordinator's run spec.
func (w *worker) fetchSpec(ctx context.Context) (Spec, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coord+"/spec", nil)
	if err != nil {
		return Spec{}, err
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return Spec{}, fmt.Errorf("fabric: fetching spec from %s: %w", w.cfg.Coord, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return Spec{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Spec{}, fmt.Errorf("fabric: GET /spec: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var spec Spec
	if err := decodeStrict(body, &spec); err != nil {
		return Spec{}, fmt.Errorf("fabric: bad spec: %w", err)
	}
	return spec, nil
}

// acquire POSTs a lease request.
func (w *worker) acquire(ctx context.Context) (LeaseResponse, error) {
	var resp LeaseResponse
	_, err := w.post(ctx, "/lease", LeaseRequest{
		Worker: w.cfg.Name, Meta: w.spec.Meta, Columns: w.spec.Digest(),
	}, &resp)
	if err != nil {
		return LeaseResponse{}, err
	}
	return resp, nil
}

// post sends one JSON request and decodes the JSON response. Non-2xx
// statuses are returned as (status, error) so callers can branch on
// conflict vs fatal.
func (w *worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coord+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fabric: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("fabric: POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(respBody))
	}
	if out != nil {
		if err := json.Unmarshal(respBody, out); err != nil {
			return resp.StatusCode, fmt.Errorf("fabric: POST %s: bad response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
