package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	// A zero jobs or days means the default (1000 jobs, 7 days).
	for _, body := range []string{
		`{"jobs": 30, "days": 2, "runs": [{"policy": "nowait"}]}`,
		`{"jobs": 0, "days": 0, "runs": [{"policy": "nowait"}]}`,
	} {
		if err := run([]string{"-scenario", writeScenario(t, body)}); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
	}
}

func TestScenarioErrors(t *testing.T) {
	cases := []struct {
		body string
		want string // a fragment the error must contain; "" checks only that it fails
	}{
		{`not json`, ""},
		{`{"runs": []}`, ""},
		{`{"runs": [{"policy": "bogus"}]}`, ""},
		{`{"waits": "xx", "runs": [{"policy": "nowait"}]}`, ""},
		{`{"region": "XX", "runs": [{"policy": "nowait"}]}`, ""},
		// A run core.Run rejects names its index and name.
		{`{"region":"SA-AU","jobs":50,"days":2,"runs":[{"policy":"nowait"},{"name":"bad","policy":"carbon-time","reserved":-3}]}`,
			"run 1 (bad)"},
		// A misspelled field is an error naming it, never a silent default.
		{`{"jobs":30,"days":2,"runs":[{"policy":"carbon-time","reserverd":18}]}`, `"reserverd"`},
		{`{"jobs":30,"days":2,"runs":[{"policy":"nowait"}]} {}`, "trailing data"},
		// A negative size is an error naming the field, never an empty run.
		{`{"jobs":-5,"days":2,"runs":[{"policy":"nowait"}]}`, `"jobs" -5`},
		{`{"jobs":30,"days":-2,"runs":[{"policy":"nowait"}]}`, `"days" -2`},
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
