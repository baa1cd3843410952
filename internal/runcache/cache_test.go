package runcache

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func fixture(t testing.TB) (core.Config, *workload.Trace) {
	t.Helper()
	tr := carbon.RegionSAAU.Generate(24*7, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(5)), 300, simtime.Week)
	cfg := core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 20, WorkConserving: true}
	return cfg, jobs
}

// sameResult asserts a cached result is indistinguishable from a direct
// core.Run: identity fields, rendered summary, and the full accumulator
// state (unexported columns included) must match bit for bit.
func sameResult(t *testing.T, got, want *metrics.Result) {
	t.Helper()
	if got.String() != want.String() {
		t.Errorf("rendered result differs:\n got %s\nwant %s", got, want)
	}
	if got.Label != want.Label || got.Region != want.Region || got.Workload != want.Workload ||
		got.Reserved != want.Reserved || got.Horizon != want.Horizon || got.Pricing != want.Pricing {
		t.Errorf("identity fields differ: got %+v want %+v", got, want)
	}
	if !reflect.DeepEqual(got.Accumulator(), want.Accumulator()) {
		t.Error("accumulator state differs from direct core.Run")
	}
	if p, q := got.WaitingPercentile(99), want.WaitingPercentile(99); p != q {
		t.Errorf("WaitingPercentile(99) = %v, want %v", p, q)
	}
}

func TestCacheHitIsBitIdentical(t *testing.T) {
	cfg, jobs := fixture(t)
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	first, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Computed {
		t.Fatalf("first request: outcome %v, want computed", outcome)
	}
	sameResult(t, first, want)

	second, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Hit {
		t.Fatalf("second request: outcome %v, want hit", outcome)
	}
	sameResult(t, second, want)
	if second == first {
		t.Error("requesters must get private Result values")
	}
	if second.Accumulator() != first.Accumulator() {
		t.Error("requesters must share one accumulator")
	}
}

// TestCacheLabelsStayPerRequester: two configs differing only in Label
// share a cache cell yet keep their own labels.
func TestCacheLabelsStayPerRequester(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()
	a := cfg
	a.Label = "first-name"
	b := cfg
	b.Label = "second-name"
	ra, _, err := c.Run(a, jobs)
	if err != nil {
		t.Fatal(err)
	}
	rb, outcome, err := c.Run(b, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Hit {
		t.Fatalf("relabeled config: outcome %v, want hit", outcome)
	}
	if ra.Label != "first-name" || rb.Label != "second-name" {
		t.Errorf("labels leaked across requesters: %q, %q", ra.Label, rb.Label)
	}
}

func TestCacheBypass(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()
	noisy := cfg
	noisy.CIS = carbon.NewNoisyService(cfg.Carbon, 0.05, 1)
	for name, bad := range map[string]core.Config{
		"noisy CIS":   noisy,
		"retained":    {Policy: cfg.Policy, Carbon: cfg.Carbon, RetainJobs: true},
		"engine":      {Policy: cfg.Policy, Carbon: cfg.Carbon, Mechanism: core.MechanismEngine},
		"heap engine": {Policy: cfg.Policy, Carbon: cfg.Carbon, Mechanism: core.MechanismHeapEngine},
	} {
		for i := 0; i < 2; i++ {
			res, outcome, err := c.Run(bad, jobs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if outcome != Bypass {
				t.Errorf("%s request %d: outcome %v, want bypass", name, i, outcome)
			}
			if res == nil {
				t.Fatalf("%s: nil result", name)
			}
		}
	}
}

// TestCacheErrorsNotCached: a failing cell reports its error to everyone
// but never poisons the cache — the next request re-runs it.
func TestCacheErrorsNotCached(t *testing.T) {
	cfg, jobs := fixture(t)
	cfg.Reserved = -1 // fingerprints fine, fails core validation
	c := New()
	for i := 0; i < 2; i++ {
		res, outcome, err := c.Run(cfg, jobs)
		if err == nil || res != nil {
			t.Fatalf("request %d: want error, got res=%v err=%v", i, res, err)
		}
		if outcome != Computed {
			t.Errorf("request %d: outcome %v, want computed (errors must not cache)", i, outcome)
		}
	}
}

// TestCacheDisk covers the full disk tier: a second cache over the same
// directory serves DiskHit, bit-identically.
func TestCacheDisk(t *testing.T) {
	cfg, jobs := fixture(t)
	dir := t.TempDir()
	cold := New()
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, outcome, err := cold.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Computed {
		t.Fatalf("cold run: outcome %v", outcome)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.gacc"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 disk entry, got %v (%v)", entries, err)
	}

	warm := New()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, outcome, err := warm.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != DiskHit {
		t.Fatalf("warm run: outcome %v, want disk-hit", outcome)
	}
	sameResult(t, got, want)
}

// TestCacheDiskDamage: truncated, corrupted, emptied or version-skewed
// entries are logged and recomputed — never an error, never a wrong
// result.
func TestCacheDiskDamage(t *testing.T) {
	cfg, jobs := fixture(t)
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"empty":     func([]byte) []byte { return nil },
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"version skew": func(b []byte) []byte {
			b[8]++ // codec version byte; crc trailer now stale too
			return b
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seed := New()
			if err := seed.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, _, err := seed.Run(cfg, jobs); err != nil {
				t.Fatal(err)
			}
			entries, _ := filepath.Glob(filepath.Join(dir, "*.gacc"))
			if len(entries) != 1 {
				t.Fatalf("want 1 entry, got %v", entries)
			}
			data, err := os.ReadFile(entries[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entries[0], corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			var logged atomic.Int32
			c := New()
			c.Logf = func(string, ...any) { logged.Add(1) }
			if err := c.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			got, outcome, err := c.Run(cfg, jobs)
			if err != nil {
				t.Fatalf("damaged entry surfaced an error: %v", err)
			}
			if outcome != Computed {
				t.Errorf("outcome %v, want computed (recompute on damage)", outcome)
			}
			if logged.Load() == 0 {
				t.Error("damage was not logged")
			}
			sameResult(t, got, want)
		})
	}
}

// TestCacheSingleFlight hammers one cache with concurrent requests for a
// handful of cells from many goroutines (run under -race): every result
// must be correct, and each cell must simulate at most once.
func TestCacheSingleFlight(t *testing.T) {
	baseCfg, jobs := fixture(t)
	const cellsN, perCell = 3, 8
	want := make([]*metrics.Result, cellsN)
	cfgs := make([]core.Config, cellsN)
	for i := range cfgs {
		cfgs[i] = baseCfg
		cfgs[i].Reserved = 10 * i
		r, err := core.Run(cfgs[i], jobs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	c := New()
	var computed atomic.Int32
	results := make([]*metrics.Result, cellsN*perCell)
	var wg sync.WaitGroup
	for g := 0; g < cellsN*perCell; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, outcome, err := c.Run(cfgs[g%cellsN], jobs)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if outcome == Computed {
				computed.Add(1)
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	if got := computed.Load(); got != cellsN {
		t.Errorf("computed %d cells, want exactly %d (single flight)", got, cellsN)
	}
	for g, res := range results {
		if res == nil {
			continue
		}
		sameResult(t, res, want[g%cellsN])
	}
}

// TestCacheConcurrentWarmCold races two caches over one directory — a
// reader warming from disk while a writer is still publishing entries —
// the -race proof that atomic rename publication works.
func TestCacheConcurrentWarmCold(t *testing.T) {
	baseCfg, jobs := fixture(t)
	dir := t.TempDir()
	const cellsN = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*cellsN)
	for side := 0; side < 2; side++ {
		c := New()
		c.Logf = func(format string, args ...any) {
			errs <- fmt.Errorf("unexpected cache diagnostic: "+format, args...)
		}
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cellsN; i++ {
			wg.Add(1)
			go func(c *Cache, i int) {
				defer wg.Done()
				cfg := baseCfg
				cfg.Reserved = 5 * i
				if _, _, err := c.Run(cfg, jobs); err != nil {
					errs <- err
				}
			}(c, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
