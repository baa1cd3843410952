package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/cell"
)

// newTestServer builds a small, fast server for handler tests.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.TraceDays == 0 {
		cfg.TraceDays = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTracesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/v1/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(out.Traces) != 6 {
		t.Fatalf("got %d traces, want the paper's 6 regions", len(out.Traces))
	}
	for i := 1; i < len(out.Traces); i++ {
		if out.Traces[i-1].Code >= out.Traces[i].Code {
			t.Fatalf("traces not sorted: %q before %q", out.Traces[i-1].Code, out.Traces[i].Code)
		}
	}
	for _, tr := range out.Traces {
		if tr.Hours != (2+cell.SlackDays)*24 {
			t.Fatalf("region %s has %d hours, want %d", tr.Code, tr.Hours, (2+cell.SlackDays)*24)
		}
		if tr.MeanCI <= 0 || tr.MinCI > tr.MeanCI || tr.MaxCI < tr.MeanCI {
			t.Fatalf("region %s has implausible CI summary: %+v", tr.Code, tr)
		}
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out struct {
		Experiments []struct {
			ID, Title string
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(out.Experiments) == 0 {
		t.Fatal("no experiments listed")
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("body %s does not report ok", body)
	}

	s.adm.startDrain()
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"draining"`)) {
		t.Fatalf("draining body %s does not report draining", body)
	}
}

func TestAdviseValidRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/advise",
		`{"policy":"carbon-time","region":"ca-us","length_minutes":120,"arrival_minute":300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out AdviseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Region != "CA-US" {
		t.Fatalf("region = %q, want canonicalized CA-US", out.Region)
	}
	if out.Queue != "short" {
		t.Fatalf("queue = %q, want short for a 2h job", out.Queue)
	}
	if out.StartMinute < 300 || out.StartMinute > 300+360 {
		t.Fatalf("start %d outside [arrival, arrival+6h]", out.StartMinute)
	}
	if out.FinishMinute != out.StartMinute+120 {
		t.Fatalf("finish %d != start %d + length", out.FinishMinute, out.StartMinute)
	}
	if out.WaitMinutes != out.StartMinute-300 {
		t.Fatalf("wait %d inconsistent with start %d", out.WaitMinutes, out.StartMinute)
	}
	if out.BaselineCarbonGrams <= 0 || out.CarbonGrams <= 0 {
		t.Fatalf("carbon fields not populated: %+v", out)
	}
	if out.CarbonSavingsGrams < 0 {
		t.Fatalf("carbon-time advisory increased carbon: %+v", out)
	}
	if out.InstanceClass != "on-demand" {
		t.Fatalf("instance class = %q, want on-demand without a spot bound", out.InstanceClass)
	}
	if !out.FastPath {
		t.Fatal("carbon-time decision did not use the oracle fast path")
	}
}

func TestAdviseSpotEligibility(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/advise",
		`{"policy":"nowait","region":"SE","length_minutes":60,"spot_max_minutes":120}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out AdviseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.InstanceClass != "spot" {
		t.Fatalf("instance class = %q, want spot for an eligible job", out.InstanceClass)
	}
	if out.CostUSD >= out.BaselineCostUSD {
		t.Fatalf("spot cost %v not below on-demand %v", out.CostUSD, out.BaselineCostUSD)
	}
}

func TestAdviseBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `{{`},
		{"unknown field", `{"policy":"nowait","region":"SE","length_minutes":5,"bogus":1}`},
		{"trailing garbage", `{"policy":"nowait","region":"SE","length_minutes":5} extra`},
		{"unknown policy", `{"policy":"mystery","region":"SE","length_minutes":5}`},
		{"unknown region", `{"policy":"nowait","region":"ZZ","length_minutes":5}`},
		{"zero length", `{"policy":"nowait","region":"SE","length_minutes":0}`},
		{"negative length", `{"policy":"nowait","region":"SE","length_minutes":-4}`},
		{"huge length", `{"policy":"nowait","region":"SE","length_minutes":99999999}`},
		{"bad queue", `{"policy":"nowait","region":"SE","length_minutes":5,"queue":"medium"}`},
		{"negative wait", `{"policy":"nowait","region":"SE","length_minutes":5,"max_wait_minutes":-1}`},
		{"arrival beyond trace", `{"policy":"nowait","region":"SE","length_minutes":5,"arrival_minute":99999999}`},
		{"negative cpus", `{"policy":"nowait","region":"SE","length_minutes":5,"cpus":-2}`},
		{"key in another case", `{"policy":"nowait","region":"SE","Length_Minutes":5}`},
		{"repeated key", `{"policy":"nowait","region":"SE","length_minutes":5,"length_minutes":6}`},
		{"null value", `{"policy":"nowait","region":"SE","length_minutes":5,"cpus":null}`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/advise", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			continue
		}
		var out map[string]string
		if err := json.Unmarshal(body, &out); err != nil || out["error"] == "" {
			t.Errorf("%s: 400 body %s is not an error object", tc.name, body)
		}
	}
}

func TestSimulateComputedThenCached(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"policy":"carbon-time","region":"SA-AU","jobs":200,"days":2}`
	resp, raw := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var first SimulateResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if first.CacheOutcome != "computed" {
		t.Fatalf("first run outcome = %q, want computed", first.CacheOutcome)
	}
	if first.Jobs != 200 || first.CarbonKg <= 0 || first.CostUSD <= 0 {
		t.Fatalf("implausible result: %+v", first)
	}
	if first.CarbonSavingsPercent <= 0 {
		t.Fatalf("carbon-time saved nothing: %+v", first)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d, body %s", resp.StatusCode, raw)
	}
	var second SimulateResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if second.CacheOutcome != "hit" {
		t.Fatalf("second run outcome = %q, want hit", second.CacheOutcome)
	}
	// A cached cell is indistinguishable from a recomputed one.
	first.CacheOutcome, second.CacheOutcome = "", ""
	if first != second {
		t.Fatalf("cached result differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	// Bodies go straight to the handler: a server that answers an
	// oversized body before reading all of it may reset the connection
	// under a client still writing.
	pad := strings.Repeat(" ", 2<<20)
	cases := []struct {
		body, wantErr string // a fragment the error must contain
	}{
		{`{"policy":"nope","region":"SE"}`, `"policy" "nope" is not a policy`},
		{`{"policy":"nowait","region":"XX"}`, `"region" "XX"`},
		{`{"policy":"nowait","region":"SE","family":"netflix"}`, `"family" "netflix"`},
		{`{"policy":"nowait","region":"SE","jobs":-1}`, `"jobs" -1`},
		{`{"policy":"nowait","region":"SE","jobs":"5"}`, `"jobs" "5" is not a whole number`},
		{`{"policy":"nowait","region":"SE","days":"2"}`, `days`},
		{`{"policy":"nowait","region":"SE","days":9999}`, `"days" 9999 exceeds`},
		{`{"policy":"nowait","region":"SE","jobs":200001}`, `"jobs" 200001 exceeds`},
		// A size that is given means what it says.
		{`{"policy":"nowait","region":"SE","jobs":0}`, `"jobs" 0 must be at least 1`},
		{`{"policy":"nowait","region":"SE","days":0}`, `"days" 0 must be at least 1`},
		{`{"policy":"nowait","region":"SE","family":"poisson","jobs":100}`, `"jobs" 100 is given`},
		{`{"policy":"nowait","region":"SE","eviction":1.5}`, `"eviction" 1.5`},
		{`{"policy":"nowait","region":"SE","reserved":-3}`, `"reserved" -3`},
		{`{"policy":"wait-awhile","region":"SE","work_conserving":true}`, `"work_conserving"`},
		// The names this endpoint used to accept are unknown fields now.
		{`{"policy":"nowait","region":"SE","eviction_rate":0.1}`, `unknown field "eviction_rate"`},
		{`{"policy":"nowait","region":"SE","wait_short_hours":3}`, `unknown field "wait_short_hours"`},
		{`{"policy":"nowait","region":"SE","wait_long_hours":1e6}`, `unknown field "wait_long_hours"`},
		// Hours lie within the run's horizon, here (7 + 3) days: no oracle
		// table sized by a wait, no panic, no overflowed duration.
		{`{"policy":"nowait","region":"SE","waits":"6x1e6"}`, `"waits" 1e+06 h is outside [0, 240]`},
		{`{"policy":"nowait","region":"SE","waits":"6x1e15"}`, `"waits" 1e+15 h`},
		{`{"policy":"nowait","region":"SE","waits":"6x1e300"}`, `"waits" 1e+300 h`},
		{`{"policy":"nowait","region":"SE","waits":"infx24"}`, `"waits" +Inf h`},
		{`{"policy":"nowait","region":"SE","waits":"nanx24"}`, `"waits" NaN h`},
		{`{"policy":"nowait","region":"SE","waits":"6"}`, `"waits" "6" is not SHORTxLONG`},
		{`{"policy":"nowait","region":"SE","spot_max_hours":1e300}`, `"spot_max_hours" 1e+300 h`},
		{`{"policy":"nowait","region":"SE","spot_max_hours":2,"checkpoint_hours":1e15}`, `"checkpoint_hours" 1e+15 h`},
		{`{"policy":"nowait","region":"SE"} {}`, "trailing data"},
		{`[]`, "want one object"},
		// Simulate bodies share the advise endpoints' 1 MiB limit, wherever
		// the excess sits.
		{`{"policy":"nowait",` + pad + `"region":"SE"}`, "body exceeds 1048576 bytes"},
		{`{"policy":"nowait","region":"SE","jobs":10,"days":1}` + pad, "body exceeds 1048576 bytes"},
	}
	for _, tc := range cases {
		name := tc.body
		if len(name) > 80 {
			name = name[:40] + "…" + name[len(name)-40:]
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400 (%s)", name, rec.Code, rec.Body)
			continue
		}
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" {
			t.Errorf("body %q: 400 body %s is not an error object", name, rec.Body)
		} else if !strings.Contains(out["error"], tc.wantErr) {
			t.Errorf("body %q: error %q, want it to contain %q", name, out["error"], tc.wantErr)
		}
	}
}

// TestSimulateDigestGolden pins the run-cache fingerprints of bodies whose
// meaning has not changed since the /v1/simulate schema became cell.Spec:
// the names of their entries in a -cache-dir, so a directory an older
// gaia-serve wrote stays warm. gaia-sim's flags and a scenario build the
// first cell too (cmd/gaia-sim TestOneCellThreeWays).
func TestSimulateDigestGolden(t *testing.T) {
	for _, c := range []struct{ body, digest string }{
		{`{"policy":"carbon-time","region":"CA-US","jobs":300,"days":2,"seed":424242}`,
			"f975d34f17d01dc0cb8284525700433a5def86b1248b4d6056f71fc879bda314"},
		{`{"policy":"wait-awhile","region":"SA-AU","family":"azure","jobs":5000,"days":7,"seed":3}`,
			"b67b049f873bd80958a312b3936d8c3b50266d9624984199054869495bbff041"},
		{`{"policy":"carbon-time","region":"sa-au","jobs":200,"days":2,"seed":7,"reserved":10}`,
			"2a5f49d955b381e77e2f6426808ef6653a5a38f4bacd3477fd6032a6a5ff6241"},
	} {
		dir := t.TempDir()
		s := newTestServer(t, Config{CacheDir: dir})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", c.body, rec.Code, rec.Body)
		}
		if got, _ := filepath.Glob(filepath.Join(dir, "*.c2.s1.gacc")); len(got) != 1 || filepath.Base(got[0]) != c.digest+".c2.s1.gacc" {
			t.Errorf("%s: cache entries %v, want %s.c2.s1.gacc", c.body, got, c.digest)
		}
	}
}

// TestSimulateCoalescing: two concurrent identical requests compute the
// cell once. The gate holds both just after admission, so they reach the
// run cache together: the other answer is a dedup if it joined the running
// computation, a hit if it arrived after, and coalesced says which.
func TestSimulateCoalescing(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4})
	s.simGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"policy":"lowest-window","region":"NL","jobs":100,"days":2}`
	type reply struct {
		status int
		resp   SimulateResponse
	}
	results := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, raw := postJSON(t, ts.URL+"/v1/simulate", body)
			var out SimulateResponse
			json.Unmarshal(raw, &out)
			results <- reply{resp.StatusCode, out}
		}()
	}
	waitFor(t, "both requests admitted", func() bool { return s.adm.running() == 2 })
	close(s.simGate)

	outcomes := map[string]int{}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status = %d", r.status)
		}
		outcomes[r.resp.CacheOutcome]++
		if r.resp.Coalesced != (r.resp.CacheOutcome == "dedup") {
			t.Fatalf("coalesced = %v with cache_outcome %q", r.resp.Coalesced, r.resp.CacheOutcome)
		}
	}
	dedup := outcomes["dedup"]
	if outcomes["computed"] != 1 || outcomes["hit"]+dedup != 1 {
		t.Fatalf("outcomes = %v, want one computed and one hit or dedup", outcomes)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`gaia_serve_simulate_cache_total{outcome="computed"} 1`,
		fmt.Sprintf(`gaia_serve_coalesce_total{role="leader"} %d`, 2-dedup),
		fmt.Sprintf(`gaia_serve_coalesce_total{role="joined"} %d`, dedup),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics output missing %q:\n%s", want, metrics)
		}
	}
}

func TestLoadSheddingQueueFull(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	s.simGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A runs (blocked on the gate), B waits in the only queue slot.
	bodyA := `{"policy":"nowait","region":"SE","jobs":50,"days":1}`
	bodyB := `{"policy":"nowait","region":"SE","jobs":51,"days":1}`
	done := make(chan int, 2)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/simulate", bodyA)
		done <- resp.StatusCode
	}()
	waitFor(t, "first request running", func() bool { return s.adm.running() == 1 })
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/simulate", bodyB)
		done <- resp.StatusCode
	}()
	waitFor(t, "second request queued", func() bool { return s.adm.queued() == 1 })

	// C finds the queue full and must be shed immediately.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", `{"policy":"nowait","region":"SE","jobs":52,"days":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	full, _ := s.adm.sheds()
	if full != 1 {
		t.Fatalf("shedFull = %d, want 1", full)
	}

	close(s.simGate)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("queued request finished with %d, want 200", code)
		}
	}
}

func TestSimulateTimeout(t *testing.T) {
	s := newTestServer(t, Config{SimulateTimeout: 50 * time.Millisecond})
	s.simGate = make(chan struct{}) // never opened: the work cannot finish
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/simulate", `{"policy":"nowait","region":"SE","jobs":10,"days":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout response took %v", elapsed)
	}
	// The timed-out request must give its admission slot back.
	waitFor(t, "admission slot released", func() bool { return s.adm.running() == 0 })
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/advise", `{"policy":"nowait","region":"SE","length_minutes":30}`)
	postJSON(t, ts.URL+"/v1/advise", `{"policy":"bogus","region":"SE","length_minutes":30}`)
	postJSON(t, ts.URL+"/v1/simulate", `{"policy":"nowait","region":"SE","jobs":20,"days":1}`)

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	text := string(body)
	wants := []string{
		`gaia_serve_requests_total{endpoint="advise",code="200"} 1`,
		`gaia_serve_requests_total{endpoint="advise",code="400"} 1`,
		`gaia_serve_requests_total{endpoint="simulate",code="200"} 1`,
		`gaia_serve_request_seconds_bucket{endpoint="advise",le="+Inf"} 2`,
		`gaia_serve_request_seconds_count{endpoint="advise"} 2`,
		`gaia_serve_simulate_cache_total{outcome="computed"} 1`,
		`gaia_serve_shed_total{reason="queue_full"} 0`,
		`gaia_serve_coalesce_total{role="leader"} 1`,
		`gaia_serve_queue_depth 0`,
		`gaia_serve_inflight 0`,
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full metrics output:\n%s", text)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/advise status = %d, want 405", resp.StatusCode)
	}
}

// TestAdviseTableMemoBounded: /v1/advise takes a job's length estimate
// from the client, and each distinct estimate makes the region trace's
// oracle build a table set, so 2000 requests with distinct
// avg_length_minutes must leave the post-GC heap within the memo bound's
// worth of table sets (64, carbon's maxQueueTables), not 2000 sets'.
func TestAdviseTableMemoBounded(t *testing.T) {
	const traceDays = 14 // gaia-serve's default advisory horizon
	s := newTestServer(t, Config{TraceDays: traceDays})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	advise := func(avgLength int) {
		body := fmt.Sprintf(`{"policy":"carbon-time","region":"SA-AU","length_minutes":120,"avg_length_minutes":%d}`, avgLength)
		if resp, b := postJSON(t, ts.URL+"/v1/advise", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("advise: status %d, body %s", resp.StatusCode, b)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// Fill the memo to its bound first, so only growth past it counts.
	for i := 0; i < 64; i++ {
		advise(1 + i)
	}
	before := liveHeap()
	for i := 0; i < 2000; i++ {
		advise(100 + i)
	}
	growth := liveHeap() - before
	// A table set is two float64 columns over the trace's hours, its
	// slack days and a few padding slots.
	perSet := int64(2 * 8 * ((traceDays+cell.SlackDays)*24 + 16))
	if limit := 64*perSet + 1<<20; growth > limit {
		t.Errorf("2000 distinct length estimates grew the post-GC heap by %d B, want at most %d (about %d B per table set)",
			growth, limit, perSet)
	}
	t.Logf("post-GC heap growth over 2000 distinct estimates: %d B (%d B per table set)", growth, perSet)
}
