package orchestrate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestGoldenCollectBytes pins the SHA-256 of Collect's CSV output — feature
// columns, cycle targets and the per-app stall aux columns — for one run per
// evaluator at Workers 1 and 2. Any change to the engine, the evaluators or
// the simulator that moves a single byte of a dataset fails here.
func TestGoldenCollectBytes(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"exact", Options{Seed: 11, Samples: 10}, "8bb6903ce603bc8394cbcb620816f835438955d38bf380f8358a011d565146ab"},
		{"bound", Options{Seed: 11, Samples: 10, Eval: EvalBound}, "a3f5ee9b490043a2520a6608c0bab1bf335b4177f513616480e0fdba532fd3fd"},
		{"hybrid-0.05", Options{Seed: 7, Samples: 18, Eval: EvalHybrid, EvalWarmup: 6, EvalRefresh: 4, EvalEscalate: 0.05}, "0d4c578bfdb61e3a48e27df371db070ffa1b402735bd02e68ca960d5fe69f901"},
		{"hybrid-0.5", Options{Seed: 7, Samples: 18, Eval: EvalHybrid, EvalWarmup: 6, EvalRefresh: 4, EvalEscalate: 0.5}, "f3db6bb9df84915b10eec82ea2a11baa1ba238466c07ff42c2f670b74cca19af"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := tc.opt
				opt.Suite = tinySuite()
				opt.Workers = workers
				sum := sha256.Sum256(collectCSV(t, opt))
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Errorf("CSV sha256 = %s, want %s", got, tc.want)
				}
			})
		}
	}
}
