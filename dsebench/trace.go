package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"armdse/internal/orchestrate"
	"armdse/internal/params"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// Span ids start at 1; 0 means "no parent". A nil *tracer records nothing,
// so untraced passes pay only a nil check at each call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. ID is the shared identifier of the
// unit of work the call served — a row index, lease id or VL.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	ID         int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans)
}

// end closes span sp and returns its duration in seconds.
func (t *tracer) end(sp int) float64 {
	if t == nil || sp == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[sp-1]
	s.End = now
	return (s.End - s.Start).Seconds()
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), one thread lane per span name.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	lanes := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lane, ok := lanes[s.Name]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Name] = lane
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i + 1, "parent": s.Parent, "id": s.ID},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rowRecord is what the benchmark keeps of each collected row: enough to
// re-simulate it and to count its instructions.
type rowRecord struct {
	index     int
	cfg       params.Config
	targets   map[string]float64
	predicted bool
	failed    bool
}

// recordingSink wraps the engine's RowSink: it keeps a rowRecord per row
// and, on traced passes, times every Put as a span under the Collect span.
type recordingSink struct {
	inner  orchestrate.RowSink
	tr     *tracer
	parent int

	mu     sync.Mutex
	rows   []rowRecord
	putSec []float64
}

func (s *recordingSink) Put(row orchestrate.Row) error {
	sp := s.tr.begin("orchestrate.RowSink.Put", s.parent, int64(row.Index))
	err := s.inner.Put(row)
	d := s.tr.end(sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, rowRecord{
		index: row.Index, cfg: row.Config, targets: row.Targets,
		predicted: row.Predicted, failed: row.Failed(),
	})
	if s.tr != nil {
		s.putSec = append(s.putSec, d)
	}
	return err
}

// timedBatches wraps a BatchSource, timing each NextBatch call — the
// generation barrier every simulation worker waits behind. It forwards the
// optional Budgeter and BatchStatsSource extensions so the engine behaves
// exactly as with the bare source.
type timedBatches struct {
	inner interface {
		orchestrate.BatchSource
		orchestrate.Budgeter
		orchestrate.BatchStatsSource
	}
	tr     *tracer
	parent int

	gens    int
	barrier time.Duration
}

func (t *timedBatches) NextBatch(prior []orchestrate.Row) ([]params.Config, bool) {
	sp := t.tr.begin("search.Proposer.NextBatch", t.parent, int64(t.gens))
	t0 := time.Now()
	batch, ok := t.inner.NextBatch(prior)
	t.barrier += time.Since(t0)
	t.tr.end(sp)
	t.gens++
	return batch, ok
}

func (t *timedBatches) Budget() int                            { return t.inner.Budget() }
func (t *timedBatches) LastBatchStats() orchestrate.BatchStats { return t.inner.LastBatchStats() }

// timingTransport is the fleet workers' HTTP transport: it times every
// coordinator round trip and counts the request bytes workers upload. On
// traced passes each round trip is a span whose id is the lease it serves.
type timingTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	parent int

	mu     sync.Mutex
	rpcSec []float64
	upload int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.begin("fabric.rpc"+req.URL.Path, t.parent, t.leaseOf(req))
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	// The round trip ends at the response header; the worker then reads a
	// body of a few hundred bytes.
	d := time.Since(t0).Seconds()
	t.tr.end(sp)
	if err == nil {
		t.mu.Lock()
		t.rpcSec = append(t.rpcSec, d)
		t.upload += max(req.ContentLength, 0)
		t.mu.Unlock()
	}
	return resp, err
}

// leaseOf reads the lease id an advance or heartbeat request carries; 0 for
// other requests and on untraced passes.
func (t *timingTransport) leaseOf(req *http.Request) int64 {
	if t.tr == nil || req.GetBody == nil {
		return 0
	}
	body, err := req.GetBody()
	if err != nil {
		return 0
	}
	defer body.Close()
	var v struct {
		LeaseID int64 `json:"lease_id"`
	}
	_ = json.NewDecoder(body).Decode(&v) // lease and spec requests carry none
	return v.LeaseID
}
