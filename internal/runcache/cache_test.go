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

// opaqueCIS hides a service's Fingerprint behind the bare carbon.Service
// methods: the stand-in for a CIS that cannot name its forecasts.
type opaqueCIS struct{ carbon.Service }

func TestCacheBypass(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()
	opaque := cfg
	opaque.CIS = opaqueCIS{carbon.NewNoisyService(cfg.Carbon, 0.05, 1)}
	for name, bad := range map[string]core.Config{
		"opaque CIS":  opaque,
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

// TestCacheIdentifiedCIS is TestCacheBypass's counterpart: a forecast
// service keyed by its recipe computes once, and a second instance built
// from the same recipe hits, bit-identical to core.Run.
func TestCacheIdentifiedCIS(t *testing.T) {
	cfg, jobs := fixture(t)
	noisy := func() core.Config {
		c := cfg
		c.CIS = carbon.NewNoisyService(cfg.Carbon, 0.05, 1)
		return c
	}
	want, err := core.Run(noisy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	for i, wantOutcome := range []Outcome{Computed, Hit} {
		got, outcome, err := c.Run(noisy(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != wantOutcome {
			t.Errorf("request %d: outcome %v, want %v", i, outcome, wantOutcome)
		}
		sameResult(t, got, want)
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

// TestCacheDiskDamage damages small store entries at every offset: a
// result entry (.gacc) and a decision plan (.gplan). Each is truncated to
// each shorter length (down to empty), has one bit flipped in each byte,
// and is grown by trailing bytes. Every damaged copy is served alone from
// a fresh store by a fresh cache and must be logged and recomputed,
// bit-identical to core.Run — never an error, never served. Entries are
// read into a reused buffer larger than most of the damaged files, so
// short reads into a stale buffer are covered too.
func TestCacheDiskDamage(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(12, 1)
	jobs := workload.MustTrace("small", []workload.Job{
		{Arrival: 0, Length: 90 * simtime.Minute, CPUs: 2},
		{Arrival: 30, Length: 4 * simtime.Hour, CPUs: 1},
		{Arrival: 3 * simtime.Time(simtime.Hour), Length: 20 * simtime.Minute, CPUs: 3},
	})
	// Work conservation keeps the result cell out of the plan tier. The
	// plan cell is direct-eligible and replays at another Reserved, so its
	// result-tier key misses and only the plan artifact is read.
	resultCell := core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 2, WorkConserving: true}
	planCell := core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 2}
	replayCell := planCell
	replayCell.Reserved = 3
	type artifact struct {
		kind      string
		glob      string
		seed, run core.Config
		name      string // file name of the seeded entry
		good      []byte
		want      *metrics.Result
	}
	artifacts := []*artifact{
		{kind: "result", glob: "*.gacc", seed: resultCell, run: resultCell},
		{kind: "plan", glob: "*.gplan", seed: planCell, run: replayCell},
	}
	for _, a := range artifacts {
		dir := t.TempDir()
		seed := New()
		if err := seed.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, _, err := seed.Run(a.seed, jobs); err != nil {
			t.Fatal(err)
		}
		entries, _ := filepath.Glob(filepath.Join(dir, a.glob))
		if len(entries) != 1 {
			t.Fatalf("%s: want 1 entry, got %v", a.kind, entries)
		}
		a.name = filepath.Base(entries[0])
		var err error
		if a.good, err = os.ReadFile(entries[0]); err != nil {
			t.Fatal(err)
		}
		if a.want, err = core.Run(a.run, jobs); err != nil {
			t.Fatal(err)
		}
	}

	// serve writes a damaged copy of a's entry into an empty store and runs
	// a's cell through a fresh cache over it, stopping the subtest at the
	// first copy that is not logged and recomputed.
	serve := func(t *testing.T, a *artifact, name string, damaged []byte) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, a.name), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		var logged atomic.Int32
		c := New()
		c.Logf = func(string, ...any) { logged.Add(1) }
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		got, outcome, err := c.Run(a.run, jobs)
		if err != nil {
			t.Fatalf("%s %s: damaged entry surfaced an error: %v", a.kind, name, err)
		}
		if outcome != Computed {
			t.Fatalf("%s %s: outcome %v, want computed (recompute on damage)", a.kind, name, outcome)
		}
		if logged.Load() == 0 {
			t.Fatalf("%s %s: damage was not logged", a.kind, name)
		}
		if sameResult(t, got, a.want); t.Failed() {
			t.FailNow()
		}
	}
	t.Run("empty", func(t *testing.T) {
		for _, a := range artifacts {
			serve(t, a, "empty", nil)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, a := range artifacts {
			for n := 1; n < len(a.good); n++ {
				serve(t, a, fmt.Sprintf("truncated to %d of %d bytes", n, len(a.good)), a.good[:n])
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		for _, a := range artifacts {
			for off := range a.good {
				bad := append([]byte(nil), a.good...)
				bad[off] ^= 1 << (off % 8)
				serve(t, a, fmt.Sprintf("bit %d flipped at offset %d", off%8, off), bad)
			}
		}
	})
	t.Run("version skew", func(t *testing.T) {
		for _, a := range artifacts {
			bad := append([]byte(nil), a.good...)
			bad[8]++ // both codecs' version follows an 8-byte magic; crc trailer now stale too
			serve(t, a, "version skew", bad)
		}
	})
	t.Run("grown", func(t *testing.T) {
		for _, a := range artifacts {
			for _, extra := range []int{1, 4, len(a.good)} {
				serve(t, a, fmt.Sprintf("grown by %d bytes", extra), append(append([]byte(nil), a.good...), make([]byte, extra)...))
			}
		}
	})
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
