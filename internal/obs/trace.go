package obs

import (
	"encoding/json"
	"io"
)

// TraceEvent is one Chrome trace-event record, the format Perfetto and
// chrome://tracing open. Ts and Dur are trace microseconds: whole simulated
// cycles for pipeline traces, wall-clock time for fleet timelines; both
// encode as plain JSON numbers. Complete events (ph "X") carry a duration,
// instants (ph "i") a scope S, metadata events (ph "M") name tracks.
type TraceEvent[T int64 | float64] struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   T              `json:"ts"`
	Dur  T              `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is a trace-event document, the top-level JSON object.
type Trace[T int64 | float64] struct {
	TraceEvents     []TraceEvent[T] `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// Add appends events to the document.
func (t *Trace[T]) Add(evs ...TraceEvent[T]) { t.TraceEvents = append(t.TraceEvents, evs...) }

// ProcessName names process pid.
func (t *Trace[T]) ProcessName(pid int, name string) { t.meta("process_name", pid, 0, name) }

// ThreadName names thread tid of process pid.
func (t *Trace[T]) ThreadName(pid, tid int, name string) { t.meta("thread_name", pid, tid, name) }

func (t *Trace[T]) meta(kind string, pid, tid int, name string) {
	t.Add(TraceEvent[T]{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// Write encodes the document as one line of JSON.
func (t *Trace[T]) Write(w io.Writer) error { return json.NewEncoder(w).Encode(t) }
