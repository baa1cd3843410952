package main

import (
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/serve"
)

// TestOneCellThreeWays builds each cell through gaia-sim's flags, a
// one-run scenario file and a /v1/simulate body, and wants one run-cache
// fingerprint from all three: the name gaia-serve gives the cell's entry
// in its -cache-dir.
func TestOneCellThreeWays(t *testing.T) {
	cases := []struct {
		flags          []string
		scenario, body string
		digest         string // the fingerprint pinned since before cell.Spec, if any
	}{
		{
			flags:    []string{"-policy", "carbon-time", "-region", "CA-US", "-jobs", "300", "-days", "2", "-seed", "424242"},
			scenario: `{"region":"CA-US","jobs":300,"days":2,"seed":424242,"runs":[{"policy":"carbon-time"}]}`,
			body:     `{"policy":"carbon-time","region":"CA-US","jobs":300,"days":2,"seed":424242}`,
			digest:   "f975d34f17d01dc0cb8284525700433a5def86b1248b4d6056f71fc879bda314",
		},
		// Every knob, in each surface's spelling and case.
		{
			flags: []string{"-policy", "Wait-AWhile", "-region", "sa-au", "-family", "azure", "-jobs", "150", "-days", "3",
				"-seed", "9", "-reserved", "4", "-spot-max", "2", "-eviction", "0.05", "-checkpoint", "0.5", "-w", "3x12"},
			scenario: `{"region":"SA-AU","family":"azure","jobs":150,"days":3,"seed":9,"waits":"3x12",
				"runs":[{"policy":"wait-awhile","reserved":4,"spot_max_hours":2,"eviction":0.05,"checkpoint_hours":0.5}]}`,
			body: `{"policy":"WAIT-AWHILE","region":"sa-au","family":"Azure","jobs":150,"days":3,"seed":9,"reserved":4,
				"spot_max_hours":2,"eviction":0.05,"checkpoint_hours":0.5,"waits":"3X12"}`,
		},
		// Defaults everywhere but a poisson workload, work conservation and
		// no short wait: 0 means no wait on every surface.
		{
			flags:    []string{"-family", "poisson", "-days", "2", "-reserved", "3", "-work-conserving", "-w", "0x24"},
			scenario: `{"family":"poisson","days":2,"runs":[{"reserved":3,"work_conserving":true,"waits":"0x24"}]}`,
			body:     `{"family":"poisson","days":2,"reserved":3,"work_conserving":true,"waits":"0x24"}`,
		},
	}
	for i, c := range cases {
		fromFlags := fingerprint(t, runCells(t, c.flags...))
		fromScenario := fingerprint(t, runCells(t, "-scenario", writeScenario(t, c.scenario)))
		fromServe := served(t, c.body)
		if fromFlags != fromScenario || fromFlags != fromServe {
			t.Errorf("case %d: flags %s, scenario %s, /v1/simulate %s; want one fingerprint", i, fromFlags, fromScenario, fromServe)
		}
		if c.digest != "" && fromFlags != c.digest {
			t.Errorf("case %d: fingerprint %s, want the pinned %s", i, fromFlags, c.digest)
		}
	}
}

// fingerprint returns the run-cache fingerprint of the one run in cells.
func fingerprint(t *testing.T, cells []ranCell) string {
	t.Helper()
	if len(cells) != 1 {
		t.Fatalf("%d runs, want 1", len(cells))
	}
	fp, ok := cells[0].cfg.Fingerprint(cells[0].jobs)
	if !ok {
		t.Fatal("run has no fingerprint")
	}
	return hex.EncodeToString(fp[:])
}

// served posts body to a gaia-serve with an empty cache directory and
// returns the fingerprint its cache entry is named by.
func served(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := serve.New(serve.Config{TraceDays: 2, CacheDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d, body %s", body, rec.Code, rec.Body)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.c2.s1.gacc"))
	if len(entries) != 1 {
		t.Fatalf("%s: cache entries %v, want one", body, entries)
	}
	return strings.TrimSuffix(filepath.Base(entries[0]), ".c2.s1.gacc")
}
