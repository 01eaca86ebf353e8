package obs

import (
	"bytes"
	"testing"
)

// TestTraceTimestampTypesEncodeAlike pins what lets pipeline traces (int64
// cycles) and fleet timelines (float64 microseconds) share one encoder:
// whole-number timestamps below 2^53 encode to the same bytes either way,
// and unset optional fields are omitted.
func TestTraceTimestampTypesEncodeAlike(t *testing.T) {
	var ti Trace[int64]
	var tf Trace[float64]
	ti.DisplayTimeUnit, tf.DisplayTimeUnit = "ns", "ns"
	ti.ProcessName(1, "p")
	tf.ProcessName(1, "p")
	ti.ThreadName(1, 3, "lane")
	tf.ThreadName(1, 3, "lane")
	for _, ts := range []int64{0, 1, 999999, 1 << 40, 1<<53 - 1} {
		ti.Add(TraceEvent[int64]{Name: "x", Ph: "X", Ts: ts, Dur: ts + 1, Pid: 1, Tid: 2, Args: map[string]any{"n": ts}})
		tf.Add(TraceEvent[float64]{Name: "x", Ph: "X", Ts: float64(ts), Dur: float64(ts + 1), Pid: 1, Tid: 2, Args: map[string]any{"n": ts}})
	}
	var bi, bf bytes.Buffer
	if err := ti.Write(&bi); err != nil {
		t.Fatal(err)
	}
	if err := tf.Write(&bf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bi.Bytes(), bf.Bytes()) {
		t.Fatalf("int64 and float64 traces differ:\n%s\n%s", bi.Bytes(), bf.Bytes())
	}
	want := `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"lane"}}`
	if !bytes.Contains(bi.Bytes(), []byte(want)) {
		t.Fatalf("thread_name event not encoded as %s:\n%s", want, bi.Bytes())
	}
}
