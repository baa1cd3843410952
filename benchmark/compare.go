package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchFile is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type benchFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of compare.
const (
	agree      = "agree"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// verdict compares set B's values of one metric against set A's. Either
// set's interquartile spread (as a share of its median) above the bound
// makes the comparison unresolved; otherwise B is worse or better when its
// median moved past the bound in that direction, and agrees if not.
func verdict(b bound, a, bv []float64) (string, float64) {
	ma, mb := median(a), median(bv)
	change := (mb - ma) / ma
	if b.Better == "higher" {
		change = -change
	}
	switch {
	case spread(a) > b.Bound || spread(bv) > b.Bound:
		return unresolved, change
	case change > b.Bound:
		return worse, change
	case change < -b.Bound:
		return better, change
	default:
		return agree, change
	}
}

// loadSet reads the untraced records of one set directory, returning each
// workload's values of each metric across its runs.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result records", dir)
	}
	out := make(map[string]map[string][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		byMetric := out[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[rec.Workload] = byMetric
		}
		for name, m := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, nil
}

// compareCmd prints one verdict per workload × end-to-end metric of set B
// against set A and returns 1 if any is worse.
func compareCmd(benchPath, dirA, dirB string) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", benchPath, err)
		return 2
	}
	setA, err := loadSet(dirA)
	if err == nil {
		var setB map[string]map[string][]float64
		if setB, err = loadSet(dirB); err == nil {
			return printVerdicts(bf, setA, setB)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func printVerdicts(bf benchFile, setA, setB map[string]map[string][]float64) int {
	names := make([]string, 0, len(setA))
	for w := range setA {
		names = append(names, w)
	}
	sort.Strings(names)
	status := 0
	fmt.Printf("%-12s %-14s %10s %10s %5s %5s %8s  %s\n", "workload", "metric", "median A", "median B", "n A", "n B", "worse by", "verdict")
	for _, w := range names {
		for _, b := range bf.EndToEnd {
			a, bv := setA[w][b.Name], setB[w][b.Name]
			if len(a) == 0 || len(bv) == 0 {
				fmt.Printf("%-12s %-14s missing from one set\n", w, b.Name)
				status = 1
				continue
			}
			v, change := verdict(b, a, bv)
			if v == worse {
				status = 1
			}
			fmt.Printf("%-12s %-14s %10.4g %10.4g %5d %5d %+7.1f%%  %s (bound %.0f%%)\n",
				w, b.Name, median(a), median(bv), len(a), len(bv), 100*change, v, 100*b.Bound)
		}
	}
	return status
}
