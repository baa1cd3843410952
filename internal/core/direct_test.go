package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// tookDirectPath runs cfg and reports whether the direct-execution path
// served it (via the completed-run counter).
func tookDirectPath(t *testing.T, cfg Config, jobs *workload.Trace) bool {
	t.Helper()
	before := directRuns.Load()
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	return directRuns.Load() != before
}

// TestDirectPathEligibility is the admission audit: exactly these Config
// shapes ride the direct path, and every mechanism the sweep replay does
// not model falls back to the event engine. A future knob that should
// disqualify a config must be added to directEligible AND here — the
// counter assertion catches it silently riding the fast path.
func TestDirectPathEligibility(t *testing.T) {
	tr, jobs := randomInstance(31)
	cases := []struct {
		name   string
		mutate func(*Config)
		direct bool
	}{
		{"carbon-time", func(c *Config) { c.Policy = policy.CarbonTime{} }, true},
		{"no-wait", func(c *Config) { c.Policy = policy.NoWait{} }, true},
		{"all-wait", func(c *Config) { c.Policy = policy.AllWait{} }, true},
		{"lowest-slot", func(c *Config) { c.Policy = policy.LowestSlot{} }, true},
		{"lowest-window", func(c *Config) { c.Policy = policy.LowestWindow{} }, true},
		{"reserved", func(c *Config) { c.Policy = policy.CarbonTime{}; c.Reserved = 20 }, true},
		{"retained", func(c *Config) { c.Policy = policy.CarbonTime{}; c.RetainJobs = true }, true},
		{"work-conserving", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.Reserved = 20
			c.WorkConserving = true
		}, false},
		{"spot", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.SpotMaxLen = 4 * simtime.Hour
			c.EvictionRate = 0.2
		}, false},
		{"critical-path", func(c *Config) { c.Policy = policy.CriticalPathShift{} }, true},
		{"plan-waitawhile", func(c *Config) { c.Policy = policy.WaitAwhile{} }, false},
		{"plan-waitawhile-est", func(c *Config) { c.Policy = policy.WaitAwhileEst{} }, false},
		{"plan-ecovisor", func(c *Config) { c.Policy = policy.Ecovisor{} }, false},
		{"opaque-cis", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.CIS = carbon.NewNoisyService(tr, 0.1, 1)
		}, false},
		{"force-event-engine", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.Mechanism = MechanismEngine
		}, false},
		{"force-heap-engine", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.Mechanism = MechanismHeapEngine
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(tr, nil)
			cfg.RetainJobs = false
			tc.mutate(&cfg)
			if got := cfg.DirectPathEligible(); got != tc.direct {
				t.Errorf("DirectPathEligible() = %v, want %v", got, tc.direct)
			}
			if got := tookDirectPath(t, cfg, jobs); got != tc.direct {
				t.Errorf("Run took direct path = %v, want %v", got, tc.direct)
			}
		})
	}

	// Elastic metadata disqualifies a config even when it is fully
	// degenerate: the decide-replay sweep has no resize or precedence
	// model, so any Elastic pointer must fall back to the event engine.
	t.Run("elastic-degenerate", func(t *testing.T) {
		cfg := baseConfig(tr, policy.CarbonTime{})
		cfg.RetainJobs = false
		cfg.Elastic = workload.Degenerate(jobs)
		if cfg.DirectPathEligible() {
			t.Error("DirectPathEligible() accepted a degenerate elastic config")
		}
		if tookDirectPath(t, cfg, jobs) {
			t.Error("degenerate elastic config rode the direct path")
		}
	})
	t.Run("elastic-managed", func(t *testing.T) {
		_, et := randomElasticInstance(31, 40)
		cfg := baseConfig(tr, policy.CarbonTime{})
		cfg.RetainJobs = false
		cfg.Elastic = et
		if cfg.DirectPathEligible() {
			t.Error("DirectPathEligible() accepted a managed elastic config")
		}
		if tookDirectPath(t, cfg, et.Jobs) {
			t.Error("managed elastic config rode the direct path")
		}
	})
}

// runBothPaths executes cfg on the direct path and pinned to the event
// engine, failing unless the direct path actually served the first run.
func runBothPaths(t *testing.T, cfg Config, jobs *workload.Trace) (direct, engine *metrics.Result) {
	t.Helper()
	before := directRuns.Load()
	direct, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if directRuns.Load() == before {
		t.Fatal("config unexpectedly fell back to the event engine")
	}
	cfg.Mechanism = MechanismEngine
	engine, err = Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return direct, engine
}

// assertIdenticalResults compares two results at every level a consumer
// can observe: the raw accumulator bytes (the strongest pin — every
// column, total and usage bin bit-identical), the full aggregate query
// surface, and the retained per-job records when present.
func assertIdenticalResults(t *testing.T, direct, engine *metrics.Result) {
	t.Helper()
	db := metrics.EncodeAccumulator(direct.Accumulator())
	eb := metrics.EncodeAccumulator(engine.Accumulator())
	if !bytes.Equal(db, eb) {
		t.Error("accumulator bytes differ between direct and engine paths")
	}
	if direct.JobCount() > 0 {
		got := fingerprint(direct, direct.Horizon)
		want := fingerprint(engine, engine.Horizon)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("aggregates diverge:\ndirect %+v\nengine %+v", got, want)
		}
	} else if direct.String() != engine.String() {
		t.Errorf("empty-trace renderings diverge:\n%s\nvs\n%s", direct.String(), engine.String())
	}
	if len(direct.Jobs) != len(engine.Jobs) {
		t.Fatalf("retained %d records direct vs %d engine", len(direct.Jobs), len(engine.Jobs))
	}
	for i := range direct.Jobs {
		if !reflect.DeepEqual(direct.Jobs[i], engine.Jobs[i]) {
			t.Fatalf("job %d diverged:\ndirect %+v\nengine %+v", i, direct.Jobs[i], engine.Jobs[i])
		}
	}
}

// TestDirectMatchesEngine is the run-path differential pin over every
// eligible policy and the eligibility-boundary configurations, in both
// retention modes and at forced multi-shard fan-out (so shard boundaries
// and the atomic usage bins are exercised even on small machines).
func TestDirectMatchesEngine(t *testing.T) {
	tr, jobs := randomInstance(47)
	policies := []policy.Policy{
		policy.NoWait{}, policy.AllWait{}, policy.LowestSlot{},
		policy.LowestWindow{}, policy.CarbonTime{},
	}
	boundaries := []struct {
		name   string
		cfg    func() Config
		jobs   *workload.Trace
		shards int32
	}{
		{"reserved-zero", func() Config {
			c := baseConfig(tr, policy.CarbonTime{})
			c.Reserved = 0
			return c
		}, jobs, 0},
		{"reserved-over-peak", func() Config {
			c := baseConfig(tr, policy.CarbonTime{})
			c.Reserved = 1 << 20
			return c
		}, jobs, 0},
		{"single-job", func() Config {
			return baseConfig(flatTrace(48, 100), policy.LowestSlot{})
		}, oneJob(90*simtime.Minute, 3), 0},
		{"empty-trace", func() Config {
			return baseConfig(flatTrace(48, 100), policy.CarbonTime{})
		}, workload.MustTrace("empty", nil), 0},
		{"multi-shard", func() Config {
			return baseConfig(tr, policy.CarbonTime{})
		}, jobs, 5},
	}
	for _, p := range policies {
		for _, retain := range []bool{false, true} {
			name := p.Name()
			if retain {
				name += "-retained"
			}
			t.Run(name, func(t *testing.T) {
				cfg := baseConfig(tr, p)
				cfg.Reserved = 25
				cfg.RetainJobs = retain
				d, e := runBothPaths(t, cfg, jobs)
				assertIdenticalResults(t, d, e)
			})
		}
	}
	for _, tc := range boundaries {
		t.Run(tc.name, func(t *testing.T) {
			if tc.shards > 0 {
				directWorkersOverride.Store(tc.shards)
				defer directWorkersOverride.Store(0)
			}
			cfg := tc.cfg()
			cfg.RetainJobs = true
			d, e := runBothPaths(t, cfg, tc.jobs)
			assertIdenticalResults(t, d, e)
		})
	}
}

// FuzzDirectVsEngine fuzzes random (Config, trace) pairs through both run
// paths asserting byte-identical accumulators — the property the run
// cache's correctness rests on, since direct and engine runs share cache
// entries.
func FuzzDirectVsEngine(f *testing.F) {
	f.Add(int64(1), 0, 0, int64(5), false)
	f.Add(int64(2), 25, 1, int64(8), true)
	f.Add(int64(3), 1000, 2, int64(13), false)
	f.Add(int64(4), 7, 3, int64(2), true)
	f.Add(int64(5), 120, 4, int64(21), false)
	f.Fuzz(func(t *testing.T, seed int64, reserved, policyIdx int, wait int64, retain bool) {
		policies := []policy.Policy{
			policy.NoWait{}, policy.AllWait{}, policy.LowestSlot{},
			policy.LowestWindow{}, policy.CarbonTime{},
		}
		if policyIdx < 0 || policyIdx >= len(policies) || reserved < 0 || reserved > 1<<20 {
			t.Skip()
		}
		if wait < 1 || wait > 96 {
			t.Skip()
		}
		tr, jobs := randomInstance(seed%64 + 1)
		cfg := baseConfig(tr, policies[policyIdx])
		cfg.Reserved = reserved
		cfg.RetainJobs = retain
		cfg.WaitShort = simtime.Duration(wait) * simtime.Hour
		cfg.WaitLong = simtime.Duration(wait) * 4 * simtime.Hour
		directWorkersOverride.Store(int32(seed%4 + 1))
		defer directWorkersOverride.Store(0)
		d, e := runBothPaths(t, cfg, jobs)
		assertIdenticalResults(t, d, e)
	})
}

// TestTimeOrder pins the sort the sweep is built on: stable ascending
// order on both the counting and comparison branches, which must agree
// with each other exactly.
func TestTimeOrder(t *testing.T) {
	keys := []simtime.Time{50, 10, 50, 10, 0, 99, 50, 10}
	want := []int32{4, 1, 3, 7, 0, 2, 6, 5}
	if got := timeOrder(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("timeOrder(%v) = %v, want %v", keys, got, want)
	}
	if got := timeOrder(nil); len(got) != 0 {
		t.Errorf("timeOrder(nil) = %v", got)
	}
	if got := timeOrder([]simtime.Time{7}); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("single-key order = %v", got)
	}

	// A sparse key set (span >> 8n) exercises the comparison fallback;
	// the dense copy of the same relative order uses counting. Both must
	// produce the identical permutation.
	rnd := newRand(9)
	sparse := make([]simtime.Time, 500)
	for i := range sparse {
		sparse[i] = simtime.Time(rnd.Int63n(1 << 40))
	}
	dense := make([]simtime.Time, len(sparse))
	ranks := append([]simtime.Time(nil), sparse...)
	sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
	for i, k := range sparse {
		dense[i] = simtime.Time(sort.Search(len(ranks), func(j int) bool { return ranks[j] >= k }))
	}
	if got, want := timeOrder(sparse), timeOrder(dense); !reflect.DeepEqual(got, want) {
		t.Error("comparison and counting branches disagree")
	}
}
