package orchestrate

import "armdse/internal/params"

// rangeChunk is the batch size of a RangeBatches source outside the
// hybrid's generations: enough to keep every worker fed, small enough
// that a paper-scale sweep never holds its whole index space in memory.
const rangeChunk = 1024

// RangeBatches is the fixed sweep as a batch source: it serves
// params.ConfigAt(Seed, i) for the contiguous global-index range [Lo, Hi),
// in order, ignoring the rows fed back. The engine numbers its rows from
// 0, so a fabric worker running one lease chunk re-bases them by Lo and
// uploads the indices a single-process sweep would journal; Collect runs
// [0, Samples) directly.
//
// Under the hybrid evaluator the batches are the routing generations — a
// Warmup-sized batch, then Refresh-sized ones — cut on indices rather than
// on the configurations a run actually simulates, so a resumed run routes
// exactly as the uninterrupted one. With zero sizes every batch is
// rangeChunk configurations, and the engine feeds them without a barrier.
type RangeBatches struct {
	Seed   int64
	Lo, Hi int
	// Warmup and Refresh are the hybrid's EvalWarmup and EvalRefresh
	// generation sizes.
	Warmup, Refresh int

	served int
}

// NextBatch implements BatchSource.
func (r *RangeBatches) NextBatch([]Row) ([]params.Config, bool) {
	lo := r.Lo + r.served
	if lo >= r.Hi {
		return nil, false
	}
	size := r.Refresh
	if r.served == 0 {
		size = r.Warmup
	}
	if size <= 0 {
		size = rangeChunk
	}
	batch := make([]params.Config, min(size, r.Hi-lo))
	for i := range batch {
		batch[i] = params.ConfigAt(r.Seed, lo+i)
	}
	r.served += len(batch)
	return batch, true
}

// Budget implements Budgeter: the size of the range.
func (r *RangeBatches) Budget() int { return max(r.Hi-r.Lo, 0) }
