package dtree_test

import (
	"math"
	"testing"

	"armdse/internal/dtree"
	"armdse/internal/params"
)

// BenchmarkTrainForestDesignSpace trains the forest the analyze stage trains,
// at its shape: 4800 encoded design-space configurations (the discrete,
// tie-heavy parameter grid the exact split scan sorts), 30 trees, Workers 2.
// The target is a deterministic synthetic cycle count over a few of the
// parameters, so the benchmark needs no simulation.
func BenchmarkTrainForestDesignSpace(b *testing.B) {
	const rows = 4800
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = params.Encode(params.ConfigAt(1, i))
		y[i] = 1e6 * (1 + math.Log2(x[i][0])/x[i][7] + 64/math.Sqrt(x[i][10]) + float64(i%97)/97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtree.TrainForest(x, y, dtree.ForestOptions{Trees: 30, Seed: 1, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
