package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesCode pins BENCHMARK.json to the benchmark's own tables:
// the same workloads, and the same metrics with the same units in order.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code emits %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsShort runs every workload for a few requests, untraced and
// traced, and checks the result lines: correct, every metric of
// BENCHMARK.json emitted with its unit, and no failed request.
func TestWorkloadsShort(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := runWith([]string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", trace},
					&stdout, &stderr, 0)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(keys) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" && res.Metrics["error_rate"].Value != 0 {
					t.Errorf("error_rate = %v", res.Metrics["error_rate"].Value)
				}
			})
		}
	}
}

// TestRejectsBadArguments checks that a bad invocation exits non-zero
// without printing a result line.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload"},
		{"--workload", workloads[0].name, "--trace", "2"},
		{"--workload", workloads[0].name, "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := runWith(args, &stdout, &stderr, 0); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
