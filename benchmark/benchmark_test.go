package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and then traced, and checks
// that each run passes its output checks and reports exactly the metrics
// BENCHMARK.json names, each with its unit. Four seconds give write_global's
// burst writer, whose turns take about a second, a turn inside its
// two-second measured write phase.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, w.Name, workloads[i].name)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--seconds", "4", "--trace", "1", "--work", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var results []resultJSON
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var res resultJSON
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, res)
		}
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d result lines, want an untraced and a traced one per workload:\n%s", len(results), stdout.String())
	}
	for i, res := range results {
		w, want := workloads[i/2].name, spec.EndToEnd
		if i%2 == 1 {
			want = spec.PerLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", w, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w, m.Name, got, m.Unit)
			}
		}
	}
	if n := strings.Count(stdout.String(), "tracing overhead"); n != len(workloads) {
		t.Errorf("%d tracing overhead blocks, want %d", n, len(workloads))
	}
}
