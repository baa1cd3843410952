package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fleetPair builds two replicas joined into one cache tier, reachable
// over real HTTP so the remote path is exercised end to end.
func fleetPair(t *testing.T) (a, b *Server, tsA, tsB *httptest.Server) {
	t.Helper()
	a = newTestServer(t, Config{TraceDays: 2})
	b = newTestServer(t, Config{TraceDays: 2})
	tsA = httptest.NewServer(a.Handler())
	tsB = httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	if err := a.ConfigureFleet(tsA.URL, []string{tsB.URL}); err != nil {
		t.Fatalf("ConfigureFleet(A): %v", err)
	}
	if err := b.ConfigureFleet(tsB.URL, []string{tsA.URL}); err != nil {
		t.Fatalf("ConfigureFleet(B): %v", err)
	}
	return a, b, tsA, tsB
}

func simulateOn(t *testing.T, url, body string) SimulateResponse {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate on %s: status %d, body %s", url, resp.StatusCode, raw)
	}
	var out SimulateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding simulate response: %v (%s)", err, raw)
	}
	return out
}

// TestFleetRemoteHit pins the tier's core promise: a cell computed on
// replica A is a remote hit on replica B — no second simulation — and the
// figures B serves are identical to A's.
func TestFleetRemoteHit(t *testing.T) {
	_, _, tsA, tsB := fleetPair(t)
	body := `{"policy":"carbon-time","region":"CA-US","jobs":300,"days":2,"seed":7}`

	first := simulateOn(t, tsA.URL, body)
	if first.CacheOutcome != "computed" {
		t.Fatalf("first run outcome = %q, want computed", first.CacheOutcome)
	}
	second := simulateOn(t, tsB.URL, body)
	if second.CacheOutcome != "remote-hit" {
		t.Fatalf("second replica outcome = %q, want remote-hit", second.CacheOutcome)
	}

	// Byte-identical figures, modulo the serving metadata.
	first.CacheOutcome, second.CacheOutcome = "", ""
	first.Coalesced, second.Coalesced = false, false
	fb, _ := json.Marshal(first)
	sb, _ := json.Marshal(second)
	if !bytes.Equal(fb, sb) {
		t.Fatalf("remote hit differs from the computing replica\nA: %s\nB: %s", fb, sb)
	}

	// The hit shows up in B's metrics, so operators can see the tier work.
	mresp, metricsBody := getBody(t, tsB.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	if !strings.Contains(string(metricsBody), `gaia_serve_simulate_cache_total{outcome="remote-hit"} 1`) {
		t.Fatalf("metrics do not count the remote hit:\n%s", metricsBody)
	}
}

// TestFleetDeadPeerDegrades pins the failure mode: with every ring member
// unreachable, requests still succeed — the cell is computed locally, the
// outage costs latency, not availability.
func TestFleetDeadPeerDegrades(t *testing.T) {
	s := newTestServer(t, Config{TraceDays: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Pure client of a tier whose only member is a dead address: every
	// get and put fails.
	if err := s.ConfigureFleet("", []string{"http://127.0.0.1:1"}); err != nil {
		t.Fatalf("ConfigureFleet: %v", err)
	}

	body := `{"policy":"nowait","region":"CA-US","jobs":200,"days":1,"seed":3}`
	out := simulateOn(t, ts.URL, body)
	if out.CacheOutcome != "computed" {
		t.Fatalf("outcome with dead tier = %q, want computed", out.CacheOutcome)
	}
	// And the in-process tiers still work on top of the dead remote.
	out = simulateOn(t, ts.URL, body)
	if out.CacheOutcome != "hit" {
		t.Fatalf("repeat outcome with dead tier = %q, want hit", out.CacheOutcome)
	}
}

// TestFleetShardRoutes pins that the shard protocol is served whether or
// not the replica has joined a ring, so fleets can be wired one process
// at a time.
func TestFleetShardRoutes(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := getBody(t, ts.URL+"/v1/cache/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d, body %s", resp.StatusCode, raw)
	}
	missing := strings.Repeat("ab", 32)
	resp, _ = getBody(t, ts.URL+"/v1/cache/"+missing)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing blob status = %d, want 404", resp.StatusCode)
	}
	resp, _ = getBody(t, ts.URL+"/v1/cache/nothex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fingerprint status = %d, want 400", resp.StatusCode)
	}
}

// TestFleetSelfOwnerKeepsOneCopy: a replica with a cache directory whose
// ring holds only itself keeps each cell once on disk, as its run cache's
// entry beside the cell's decision plan, with no second copy of its own
// for the fleet shard.
func TestFleetSelfOwnerKeepsOneCopy(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{TraceDays: 2, CacheDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.ConfigureFleet(ts.URL, nil); err != nil {
		t.Fatalf("ConfigureFleet: %v", err)
	}
	out := simulateOn(t, ts.URL, `{"policy":"carbon-time","region":"CA-US","jobs":300,"days":2,"seed":7}`)
	if out.CacheOutcome != "computed" {
		t.Fatalf("outcome = %q, want computed", out.CacheOutcome)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, pattern := range []string{"*.c2.s1.gacc", "*.gplan"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) != 1 {
			t.Errorf("want one %s in the cache directory, have %v", pattern, names)
		}
	}
	if len(names) != 2 {
		t.Errorf("cache directory holds %v, want only the cell's entry and its plan", names)
	}
}
