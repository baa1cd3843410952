package fleet

import (
	"bytes"
	"context"
	"encoding/hex"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// testBlob builds a small valid wire blob — an encoded accumulator with
// recognizable contents.
func testBlob(t testing.TB, jobs int) []byte {
	t.Helper()
	a := metrics.NewAccumulator(jobs, 2*simtime.Hour)
	for i := 0; i < jobs; i++ {
		a.AddJob(&metrics.JobResult{
			JobID: i, Waiting: simtime.Duration(i), Length: simtime.Hour,
			Carbon: float64(i) * 1.5, BaselineCarbon: float64(i) * 2,
			UsageCost: 0.25, Queue: workload.QueueShort,
		})
	}
	return metrics.EncodeAccumulator(a)
}

// newShard returns an empty run cache to serve as a shard.
func newShard(t testing.TB) *runcache.Cache {
	c := runcache.New()
	c.Logf = t.Logf
	return c
}

func TestCacheServerProtocol(t *testing.T) {
	store := newShard(t)
	ts := httptest.NewServer(NewCacheServer(store).Handler())
	defer ts.Close()
	blob := testBlob(t, 5)
	fpHex := strings.Repeat("ab", 32)

	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := do("GET", "/v1/cache/"+fpHex, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET miss = %d, want 404", resp.StatusCode)
	}
	if resp := do("PUT", "/v1/cache/"+fpHex, blob); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT valid = %d, want 204", resp.StatusCode)
	}
	resp := do("GET", "/v1/cache/"+fpHex, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET hit = %d, want 200", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), blob) {
		t.Fatalf("GET body mismatch: %d bytes, want %d", got.Len(), len(blob))
	}

	if resp := do("PUT", "/v1/cache/"+fpHex, []byte("not an accumulator")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT invalid blob = %d, want 400", resp.StatusCode)
	}
	if resp := do("PUT", "/v1/cache/zz", blob); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT bad fingerprint = %d, want 400", resp.StatusCode)
	}
	if resp := do("GET", "/v1/cache/stats", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stats = %d, want 200", resp.StatusCode)
	}
}

// TestClientRouting drives two members — one live HTTP peer and "self" —
// and checks that a key self owns never dials and is stored nowhere,
// while every key the peer owns reaches the peer's shard.
func TestClientRouting(t *testing.T) {
	peerShard := newShard(t)
	peer := httptest.NewServer(NewCacheServer(peerShard).Handler())
	defer peer.Close()

	self := "http://self.invalid:0" // dialing it would fail the operation
	ring := NewRing([]string{self, peer.URL}, 0)
	c := NewClient(ring, self)

	blob := testBlob(t, 2)
	ctx := context.Background()
	var selfKeys, peerKeys int
	for i := 0; i < 64; i++ {
		fp := key(i)
		if err := c.Put(ctx, fp, blob); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, err := c.Get(ctx, fp)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if ring.Owner(fp) == self {
			selfKeys++
			if got != nil || peerShard.Blob(fp) != nil {
				t.Fatalf("key %d owned by self was stored", i)
			}
			continue
		}
		peerKeys++
		if !bytes.Equal(got, blob) {
			t.Fatalf("get %d: %d bytes, want %d", i, len(got), len(blob))
		}
		if !bytes.Equal(peerShard.Blob(fp), blob) {
			t.Fatalf("key %d owned by peer missing from peer shard", i)
		}
	}
	if selfKeys == 0 || peerKeys == 0 {
		t.Fatalf("degenerate split: self=%d peer=%d", selfKeys, peerKeys)
	}
}

// TestPeerPutServesRemoteHitThenHit: a cell a peer PUT through the shard
// protocol is served to the first local Run as a remote hit and to the
// next as a hit, bit-identical to core.Run, and the shard's counters
// record the traffic.
func TestPeerPutServesRemoteHitThenHit(t *testing.T) {
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(3)), 50, simtime.Day)
	cfg := core.Config{Policy: policy.CarbonTime{}, Carbon: carbon.RegionSAAU.Generate(72, 1), Reserved: 4}
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		t.Fatal("cell is not cacheable")
	}
	shard := newShard(t)
	h := NewCacheServer(shard).Handler()
	path := "/v1/cache/" + hex.EncodeToString(fp[:])
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, path, bytes.NewReader(metrics.EncodeAccumulator(want.Accumulator()))))
	if w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", w.Code)
	}
	for _, wantOutcome := range []runcache.Outcome{runcache.RemoteHit, runcache.Hit} {
		got, outcome, err := shard.Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != wantOutcome {
			t.Fatalf("outcome %v, want %v", outcome, wantOutcome)
		}
		if got.String() != want.String() || !reflect.DeepEqual(got.Accumulator(), want.Accumulator()) {
			t.Fatalf("%v result differs from core.Run", outcome)
		}
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cache/"+strings.Repeat("cd", 32), nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET of an absent cell = %d, want 404", w.Code)
	}
	if st := shard.Stats(); st.Entries != 1 || st.Puts != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 entry, 1 put, 1 miss", st)
	}
}

// TestClientDeadPeer pins degradation: a dead owner yields errors, not
// hangs — and a clean miss is (nil, nil), distinguishable from failure.
func TestClientDeadPeer(t *testing.T) {
	dead := "http://127.0.0.1:1" // reserved port, nothing listens
	c := NewClient(NewRing([]string{dead}, 0), "")
	c.hc.Timeout = 200 * time.Millisecond
	ctx := context.Background()
	start := time.Now()
	if _, err := c.Get(ctx, key(1)); err == nil {
		t.Fatal("get from dead peer succeeded")
	}
	if err := c.Put(ctx, key(1), testBlob(t, 1)); err == nil {
		t.Fatal("put to dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-peer operations took %v; timeout not applied", elapsed)
	}
}

// FuzzCacheWire feeds arbitrary fingerprints and bodies through the cache
// protocol: the server must answer every request with a sane status and
// never panic, and only blobs that strictly decode may be stored.
func FuzzCacheWire(f *testing.F) {
	valid := testBlob(f, 2)
	f.Add(strings.Repeat("ab", 32), valid)
	f.Add(strings.Repeat("ab", 32), valid[:len(valid)-3])    // truncated
	f.Add(strings.Repeat("ab", 32), append([]byte{}, 0x00))  // garbage
	f.Add("zz", valid)                                       // bad hex
	f.Add("abc", valid)                                      // bad length
	f.Add(strings.Repeat("AB", 32), []byte{})                // upper hex, empty body
	f.Add(strings.Repeat("ab", 32), append(valid, valid...)) // trailing garbage
	f.Fuzz(func(t *testing.T, fp string, body []byte) {
		store := runcache.New()
		store.Logf = func(string, ...any) {}
		h := NewCacheServer(store).Handler()

		put := httptest.NewRequest(http.MethodPut, "/v1/cache/"+sanitizePath(fp), bytes.NewReader(body))
		pw := httptest.NewRecorder()
		h.ServeHTTP(pw, put)
		switch pw.Code {
		case http.StatusNoContent:
			// Stored — must therefore decode strictly.
			if _, err := metrics.DecodeAccumulator(body); err != nil {
				t.Fatalf("stored a blob that does not decode: %v", err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusNotFound, http.StatusMovedPermanently:
			// Rejected (404/301 when the path escapes the route).
		default:
			t.Fatalf("PUT answered unexpected status %d", pw.Code)
		}

		get := httptest.NewRequest(http.MethodGet, "/v1/cache/"+sanitizePath(fp), nil)
		gw := httptest.NewRecorder()
		h.ServeHTTP(gw, get)
		if gw.Code == http.StatusOK {
			if _, err := metrics.DecodeAccumulator(gw.Body.Bytes()); err != nil {
				t.Fatalf("served a blob that does not decode: %v", err)
			}
		}
	})
}

// sanitizePath keeps fuzzed fingerprints usable as a URL path element —
// the client always sends lower hex; the fuzz explores near that space
// without tripping net/http's request-line validation.
func sanitizePath(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r < 0x7f && r != '/' && r != '?' && r != '#' && r != '%' {
			b.WriteRune(r)
		} else {
			b.WriteByte('x')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}
