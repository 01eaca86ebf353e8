package orchestrate

import (
	"reflect"
	"testing"

	"armdse/internal/params"
)

// drain collects every configuration a range source serves, with the
// batch sizes it cut.
func drain(src *RangeBatches) (cfgs []params.Config, sizes []int) {
	for {
		batch, ok := src.NextBatch(nil)
		if !ok {
			return cfgs, sizes
		}
		cfgs = append(cfgs, batch...)
		sizes = append(sizes, len(batch))
	}
}

// TestRangeSourceMapsGlobalIndices: position i of a range source is exactly
// global index Lo+i of the seed's sampling stream, so any partition of
// [0, N) into ranges enumerates the same configs a single sweep would.
func TestRangeSourceMapsGlobalIndices(t *testing.T) {
	const seed, n = 42, 17
	var whole []params.Config
	for i := 0; i < n; i++ {
		whole = append(whole, params.ConfigAt(seed, i))
	}
	var pieced []params.Config
	for _, r := range [][2]int{{0, 5}, {5, 6}, {6, 17}} {
		src := &RangeBatches{Seed: seed, Lo: r[0], Hi: r[1]}
		if src.Budget() != r[1]-r[0] {
			t.Fatalf("[%d, %d): Budget = %d", r[0], r[1], src.Budget())
		}
		cfgs, _ := drain(src)
		pieced = append(pieced, cfgs...)
	}
	if !reflect.DeepEqual(pieced, whole) {
		t.Error("partitioned ranges do not enumerate the sampling stream")
	}
}

func TestRangeSourceEmpty(t *testing.T) {
	for _, r := range []*RangeBatches{{Seed: 1, Lo: 3, Hi: 3}, {Seed: 1, Lo: 5, Hi: 2}} {
		if r.Budget() != 0 {
			t.Errorf("[%d, %d): Budget = %d, want 0", r.Lo, r.Hi, r.Budget())
		}
		if _, ok := r.NextBatch(nil); ok {
			t.Errorf("[%d, %d): served a batch", r.Lo, r.Hi)
		}
	}
}

// TestRangeSourceBatchSizes pins where a range source cuts its batches: a
// warmup generation then refresh generations under the hybrid, bounded
// chunks otherwise.
func TestRangeSourceBatchSizes(t *testing.T) {
	cases := []struct {
		src  *RangeBatches
		want []int
	}{
		{&RangeBatches{Hi: 18, Warmup: 6, Refresh: 4}, []int{6, 4, 4, 4}},
		{&RangeBatches{Lo: 3, Hi: 10, Warmup: 20, Refresh: 4}, []int{7}},
		{&RangeBatches{Hi: 2*rangeChunk + 1}, []int{rangeChunk, rangeChunk, 1}},
	}
	for _, tc := range cases {
		if _, sizes := drain(tc.src); !reflect.DeepEqual(sizes, tc.want) {
			t.Errorf("[%d, %d) warmup %d refresh %d: batches %v, want %v",
				tc.src.Lo, tc.src.Hi, tc.src.Warmup, tc.src.Refresh, sizes, tc.want)
		}
	}
}
