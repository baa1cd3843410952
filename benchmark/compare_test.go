package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := bound{Name: "op_ms.p50", Better: "lower", Bound: 0.1}
	higher := bound{Name: "rate_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    bound
		bv   []float64
		want string
	}{
		{"same", lower, scaled(1), agree},
		{"within bound", lower, scaled(1.05), agree},
		{"slower", lower, scaled(1.2), worse},
		{"faster", lower, scaled(0.8), better},
		{"fewer per second", higher, scaled(0.8), worse},
		{"more per second", higher, scaled(1.2), better},
		{"too noisy", lower, []float64{50, 150, 60, 140, 100, 55, 145, 100, 65, 135}, unresolved},
	} {
		if got, _ := verdict(tc.b, base, tc.bv); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []bound                 `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if i < len(workloadOrder) && w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloadOrder[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end %d: %s (%s) in BENCHMARK.json, %s (%s) in the program",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && m.Name != perLayer[i] {
			t.Errorf("per-layer %d: %s in BENCHMARK.json, %s in the program", i, m.Name, perLayer[i])
		}
	}
}
