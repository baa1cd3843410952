package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func writeScenario(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioRuns(t *testing.T) {
	db := filepath.Join(t.TempDir(), "runs.csv")
	path := writeScenario(t, `{
		"region": "SA-AU",
		"family": "alibaba",
		"jobs": 60,
		"days": 2,
		"db": "`+db+`",
		"runs": [
			{"name": "baseline", "policy": "nowait"},
			{"name": "gaia", "policy": "carbon-time", "reserved": 5, "work_conserving": true},
			{"policy": "carbon-time", "spot_max_hours": 2, "eviction": 0.1, "checkpoint_hours": 0.5}
		]
	}`)
	if err := run([]string{"-scenario", path}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(db); err != nil || st.Size() == 0 {
		t.Errorf("accounting db missing: %v", err)
	}
}

func TestScenarioDefaults(t *testing.T) {
	// Fields left out take cell.Default's values; top-level knobs are the
	// ones every run starts from, and a run's own knobs override them.
	cells := runCells(t, "-scenario", writeScenario(t, `{"jobs": 30, "days": 2, "reserved": 4, "waits": "0x24",
		"runs": [{"policy": "nowait"}, {"reserved": 0, "waits": "3x12"}]}`))
	want := []struct {
		policy   string
		reserved int
		queues   workload.QueueLadder
	}{
		{"NoWait", 4, workload.PaperQueues(0, 24*simtime.Hour)},
		{"Carbon-Time", 0, workload.PaperQueues(3*simtime.Hour, 12*simtime.Hour)},
	}
	for i, c := range cells {
		if c.cfg.Policy.Name() != want[i].policy || c.cfg.Reserved != want[i].reserved || !slices.Equal(c.cfg.Queues, want[i].queues) {
			t.Errorf("run %d: policy %s, reserved %d, queues %v; want %+v", i, c.cfg.Policy.Name(), c.cfg.Reserved, c.cfg.Queues, want[i])
		}
		if c.jobs.Len() != 30 || c.cfg.Horizon != 5*simtime.Day || c.cfg.Seed != 1 {
			t.Errorf("run %d: %d jobs, horizon %v, seed %d; want 30, 5 days, 1", i, c.jobs.Len(), c.cfg.Horizon, c.cfg.Seed)
		}
	}
	if len(cells) != 2 || cells[0].jobs != cells[1].jobs || cells[0].cfg.Carbon != cells[1].cfg.Carbon {
		t.Error("the runs of a scenario do not share its traces")
	}
}

func TestScenarioErrors(t *testing.T) {
	cases := []struct {
		body string
		want string // a fragment the error must contain
	}{
		{`not json`, "invalid JSON"},
		{`{"runs": []}`, `"runs" is empty`},
		{`{"runs": [{"policy": "bogus"}]}`, `run 0 (bogus): "policy"`},
		{`{"waits": "xx", "runs": [{"policy": "nowait"}]}`, `"waits"`},
		{`{"region": "XX", "runs": [{"policy": "nowait"}]}`, `"region"`},
		// A bad run names its index and name.
		{`{"region":"SA-AU","jobs":50,"days":2,"runs":[{"policy":"nowait"},{"name":"bad","policy":"carbon-time","reserved":-3}]}`,
			`run 1 (bad): "reserved" -3`},
		// A misspelled field is an error naming it, never a silent default.
		{`{"jobs":30,"days":2,"runs":[{"policy":"carbon-time","reserverd":18}]}`, `"reserverd"`},
		{`{"jobs":30,"days":2,"runs":[{"policy":"nowait"}]} {}`, "trailing data"},
		// Runs share one recipe: a run cannot change it.
		{`{"jobs":30,"days":2,"runs":[{"policy":"nowait","region":"SE"}]}`, "shared by every run"},
		{`{"jobs":30,"days":2,"runs":[{"policy":"nowait","jobs":40}]}`, "shared by every run"},
		// A size that is given means what it says: 0 and negatives are errors.
		{`{"jobs":-5,"days":2,"runs":[{"policy":"nowait"}]}`, `"jobs" -5`},
		{`{"jobs":30,"days":-2,"runs":[{"policy":"nowait"}]}`, `"days" -2`},
		{`{"jobs": 0, "days": 2, "runs": [{"policy": "nowait"}]}`, `"jobs" 0`},
		{`{"jobs": 30, "days": 0, "runs": [{"policy": "nowait"}]}`, `"days" 0`},
		{`{"jobs": 30, "days": 3651, "runs": [{"policy": "nowait"}]}`, `"days" 3651 exceeds 3650`},
		{`{"family":"poisson","jobs":30,"days":2,"runs":[{"policy":"nowait"}]}`, `"jobs" 30 is given`},
		{`{"jobs":30,"days":2,"waits":"6x1e6","runs":[{"policy":"nowait"}]}`, `"waits"`},
		{`{"jobs":30,"days":2,"runs":[{"policy":"nowait","spot_max_hours":1e300}]}`, `run 0 (nowait): "spot_max_hours"`},
	}
	for i, c := range cases {
		path := writeScenario(t, c.body)
		err := run([]string{"-scenario", path})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want an error containing %q", i, err, c.want)
		}
	}
	if err := run([]string{"-scenario", "/nonexistent.json"}); err == nil {
		t.Error("missing file should error")
	}
}
