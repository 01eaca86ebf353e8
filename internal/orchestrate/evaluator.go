package orchestrate

import (
	"math"
	"sort"
	"sync"

	"armdse/internal/dtree"
	"armdse/internal/isa"
	"armdse/internal/simeng"
)

// Per-config evaluation seam. Every design-space point needs a cycle count
// per application; how that number is produced is pluggable. Exact
// simulation is the ground truth; the analytical bound model answers from
// stream statistics alone in microseconds; the hybrid routes between them —
// a dtree residual forest learned on escalated (exactly-simulated) configs
// predicts on top of the analytical lower bound, and any config the forest
// is not confident about escalates to exact simulation, whose result feeds
// the next residual refresh. Selection is by name so it can ride a CLI flag
// (-eval) exactly like the memory backend's -mem.
const (
	// EvalExact runs the full simulator on every configuration — the
	// study's default and the ground-truth reference.
	EvalExact = "exact"
	// EvalBound answers every configuration from the analytical bound
	// model (simeng.BoundModel): no simulation, roofline accuracy.
	EvalBound = "bound"
	// EvalHybrid predicts from bounds plus a learned residual when the
	// forest is confident, escalating the rest to exact simulation.
	EvalHybrid = "hybrid"
)

// Evaluators lists the selectable evaluator names.
func Evaluators() []string { return []string{EvalExact, EvalBound, EvalHybrid} }

// Hybrid routing defaults. The escalation threshold is in log-cycle units
// (the residual forest predicts ln(exact/lower), so a between-tree spread
// of 0.04 is roughly ±4% disagreement about the predicted cycle count);
// warmup and refresh are generation sizes in configurations.
const (
	DefaultEvalEscalate = 0.04
	DefaultEvalWarmup   = 40
	DefaultEvalRefresh  = 32
	// evalForestTrees sizes the residual forests: small enough to retrain
	// in milliseconds mid-sweep, large enough for a usable spread signal.
	evalForestTrees = 20
	// evalMinSamplesLeaf regularises the residual trees.
	evalMinSamplesLeaf = 2
)

// PredictBound is the bound evaluator's per-application body: it answers
// one application on a configuration from the analytical bound model. The
// prediction is the roofline lower bound — architectural counts (retired,
// loads, stores...) are exact stream properties and the stall breakdown is
// the model's synthetic attribution, still summing to Cycles — and the
// confidence is the bounds' Lower/Upper tightness, in (0, 1].
func PredictBound(bm *simeng.BoundModel, st isa.StreamStats) (simeng.Stats, float64) {
	b := bm.Bounds(st)
	return bm.PredictedStats(st, b, b.Lower), boundTightness(b)
}

// boundTightness maps a bounds pair to (0, 1]: 1 when the interval is a
// point, shrinking as the upper bound loosens.
func boundTightness(b simeng.Bounds) float64 {
	if b.Upper <= b.Lower {
		return 1
	}
	return float64(b.Lower) / float64(b.Upper)
}

// spreadConfidence maps the residual forest's between-tree log-space
// spread to (0, 1].
func spreadConfidence(std float64) float64 { return 1 / (1 + std) }

// residualSample is one training observation of the hybrid's residual
// model: the feature vector of a (configuration, application) pair and the
// log-ratio of exact cycles to the analytical lower bound.
type residualSample struct {
	index int
	x     []float64
	y     float64
}

// residualState is the hybrid's learned state for one application: the
// accumulated escalation observations and the forest fitted to them.
// Guarded by the owning hybridState's lock.
type residualState struct {
	samples []residualSample
	forest  *dtree.Forest
}

// hybridState is the shared routing state of hybrid evaluation: per-app
// residual forests plus the observations they retrain from. The collection
// engine refreshes it between generations, while no worker routes, which
// keeps routing deterministic at any worker count.
type hybridState struct {
	threshold float64
	seed      int64
	workers   int

	mu   sync.RWMutex
	apps map[string]*residualState
	// gens counts completed refreshes (the training-substream index).
	gens int
}

func newHybridState(threshold float64, seed int64, workers int) *hybridState {
	if threshold <= 0 {
		threshold = DefaultEvalEscalate
	}
	return &hybridState{
		threshold: threshold,
		seed:      seed,
		workers:   workers,
		apps:      make(map[string]*residualState),
	}
}

// decide consults the app's residual forest on x. ok reports whether the
// forest exists and its spread clears the escalation threshold; mean and
// std are the forest's log-space prediction and spread (zero when no forest
// is fitted yet).
func (h *hybridState) decide(app string, x []float64) (mean, std float64, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	rs := h.apps[app]
	if rs == nil || rs.forest == nil {
		return 0, 0, false
	}
	mean, std = rs.forest.PredictStats(x)
	return mean, std, std <= h.threshold
}

// observe folds one escalated (configuration, application) outcome into
// the training set. The config index tags the sample so refresh can order
// the set deterministically regardless of completion order.
func (h *hybridState) observe(app string, index int, x []float64, y float64) {
	h.mu.Lock()
	rs := h.apps[app]
	if rs == nil {
		rs = &residualState{}
		h.apps[app] = rs
	}
	rs.samples = append(rs.samples, residualSample{index: index, x: x, y: y})
	h.mu.Unlock()
}

// refresh refits every app's residual forest on all observations so far.
// The refit is warm-started: each generation retrains only a rotating
// subset of the ensemble (dtree.RefitForest) on the grown sample set, so
// the per-barrier cost is a fraction of a cold retrain. Samples are sorted
// by config index, the forest seed derives from (seed, generation, app
// position) and the retrain rotation is keyed by the generation count, so
// given the same observation sets at each refresh the fitted forests are
// identical at any worker count and arrival order. Returns the total
// number of training samples fitted.
func (h *hybridState) refresh() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.apps))
	for name := range h.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	genSeed := dtree.SubSeed(h.seed, h.gens)
	var total int64
	for ai, name := range names {
		rs := h.apps[name]
		if len(rs.samples) < evalMinSamplesLeaf*2 {
			continue
		}
		sort.Slice(rs.samples, func(i, j int) bool { return rs.samples[i].index < rs.samples[j].index })
		x := make([][]float64, len(rs.samples))
		y := make([]float64, len(rs.samples))
		for i, s := range rs.samples {
			x[i], y[i] = s.x, s.y
		}
		f, _, err := dtree.RefitForest(rs.forest, x, y, dtree.RefitOptions{
			ForestOptions: dtree.ForestOptions{
				Trees:          evalForestTrees,
				MinSamplesLeaf: evalMinSamplesLeaf,
				Seed:           dtree.SubSeed(genSeed, ai),
				Workers:        h.workers,
			},
			Gen: h.gens,
		})
		if err != nil {
			// Training can only fail on an empty set, which the size guard
			// excludes; keep the previous forest if it somehow does.
			continue
		}
		rs.forest = f
		total += int64(len(rs.samples))
	}
	h.gens++
	return total
}

// predictCycles turns the residual forest's log-space mean into a cycle
// count, clamped into the analytical bracket.
func predictCycles(b simeng.Bounds, logMean float64) int64 {
	c := int64(math.Round(float64(b.Lower) * math.Exp(logMean)))
	if c < b.Lower {
		c = b.Lower
	}
	if c > b.Upper {
		c = b.Upper
	}
	return c
}

// hybridFeatures builds the residual feature vector of one (configuration,
// application) pair: the canonical 30 config features plus the bound
// model's derived features.
func hybridFeatures(cfgFeatures []float64, bm *simeng.BoundModel, b simeng.Bounds) []float64 {
	x := make([]float64, 0, len(cfgFeatures)+simeng.NumBoundFeatures)
	x = append(x, cfgFeatures...)
	return bm.AppendFeatures(x, b)
}
