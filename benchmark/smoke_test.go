package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tinyScale shrinks every workload so the whole benchmark runs in seconds.
func tinyScale() scale {
	sv := fullServeScale()
	sv.lowRate, sv.highRate = 200, 400
	sv.step, sv.probePhase = 200*time.Millisecond, 200*time.Millisecond
	sv.poolCells, sv.batchJobs, sv.sampleAdvise = 4, 8, 8
	sv.simJobs, sv.simDays = 50, 2
	return scale{setupReps: 2, probeReps: 1, yearJobs: 20_000, engineJobs: 5_000, elasticJobs: 1_000, serve: sv}
}

// TestSmoke runs every workload untraced at tiny scale, and year-direct
// traced, and checks that each run passes its output checks and reports
// every metric of its set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gaia-exp and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "gaia-exp")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/carbonsched/gaia/cmd/gaia-exp").CombinedOutput(); err != nil {
		t.Fatalf("building gaia-exp: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		traced   bool
	}{
		{"year-direct", false}, {"year-engine", false}, {"suite", false}, {"serve-mix", false},
		{"year-direct", true},
	}
	for _, r := range runs {
		e := &env{
			workload: r.workload, seed: 1, seconds: time.Second, traced: r.traced,
			sc: tinyScale(), gaiaExp: bin, tmp: t.TempDir(), rep: newReport(), cal: newCalibrator(),
		}
		e.tr = newTracer(r.traced, r.workload)
		if err := execute(e, workloads[r.workload]); err != nil {
			t.Fatalf("%s (traced %v): %v", r.workload, r.traced, err)
		}
		res, err := e.rep.result(r.traced)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", r.workload, r.traced, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s (traced %v): %d of %d operations failed: %v", r.workload, r.traced, res.Failed, res.Attempted, e.rep.problems)
		}
		for name, m := range res.Metrics {
			if name == "setup_s" || name == "op_ms.p50" {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", r.workload, name, m.Value)
				}
			}
		}
		if r.traced && len(e.tr.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", r.workload)
		}
	}
}
