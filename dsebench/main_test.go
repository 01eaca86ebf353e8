package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogueMatchesBenchmarkJSON pins the metric lists the binary prints
// to the ones BENCHMARK.json declares, names, units and direction alike.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		kind     string
		declared []specMetric
		printed  []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer},
	} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.kind, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.printed {
			got := specMetric{d.name, d.unit, d.better}
			if c.declared[i] != got {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", c.kind, i, c.declared[i], got)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

// TestSmokeEveryWorkload runs each declared workload at tiny size, untraced
// and traced, and requires a correct result line carrying exactly the
// declared metrics with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(wl.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "0",
					"--trace", strconv.Itoa(trace), "--tiny", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
