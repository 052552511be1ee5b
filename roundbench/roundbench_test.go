package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at its smoke size, untraced on the default
// and the held-out seed and traced on the default seed. Each run must pass
// its reference checks with no failed report and print every named metric
// with its unit on the summary line.
func TestSmoke(t *testing.T) {
	for _, def := range workloadList {
		for _, tc := range []struct {
			seed  int64
			trace bool
		}{{defaultSeed, false}, {heldOutSeed, false}, {defaultSeed, true}} {
			def, tc := def, tc
			name := def.name + "/seed" + strconv.FormatInt(tc.seed, 10)
			if tc.trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(def, config{
					seed:    tc.seed,
					seconds: time.Second,
					trace:   tc.trace,
					outDir:  t.TempDir(),
					log:     &log,
					smoke:   true,
				})
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.correct, res.failed, res.attempted, log.String())
				}
				var line bytes.Buffer
				if err := printJSON(&line, res, tc.trace); err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool              `json:"correct"`
					Attempted int64             `json:"attempted"`
					Failed    int64             `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal(line.Bytes(), &out); err != nil {
					t.Fatalf("summary line %q: %v", line.String(), err)
				}
				want := endToEndMetrics
				if tc.trace {
					want = layerMetrics
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("summary carries %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if !tc.trace {
					for _, d := range endToEndMetrics {
						if out.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, out.Metrics[d.name].Value)
						}
					}
				}
				if !strings.Contains(log.String(), "error_rate") {
					t.Errorf("report does not print error_rate:\n%s", log.String())
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEndMetrics)
	check("per_layer", layer, layerMetrics)
}
