package core

import (
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/forecast"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// fpFixture builds a small valid trace pair for fingerprinting tests.
func fpFixture(t testing.TB) (*carbon.Trace, *workload.Trace) {
	t.Helper()
	tr := carbon.RegionSAAU.Generate(24*10, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(3)), 200, simtime.Week)
	return tr, jobs
}

func mustFingerprint(t *testing.T, cfg Config, jobs *workload.Trace) [32]byte {
	t.Helper()
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		t.Fatalf("config unexpectedly not fingerprintable: %+v", cfg)
	}
	return fp
}

// TestFingerprintCanonicalization asserts that every way of spelling the
// same effective configuration hashes identically: zero values vs their
// explicit defaults, permuted AvgLengthOverride insertion order, label
// changes, and knobs that are irrelevant in context (spot/eviction seeds
// with spot disabled).
func TestFingerprintCanonicalization(t *testing.T) {
	tr, jobs := fpFixture(t)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	want := mustFingerprint(t, base, jobs)

	equivalents := map[string]Config{
		"explicit CIS": {Policy: policy.CarbonTime{}, Carbon: tr,
			CIS: carbon.NewPerfectService(tr)},
		"explicit defaults": {Policy: policy.CarbonTime{}, Carbon: tr,
			Queues:  workload.PaperQueues(workload.DefaultWaitShort, workload.DefaultWaitLong),
			Horizon: tr.Horizon()},
		"explicit queue ladder": {Policy: policy.CarbonTime{}, Carbon: tr,
			Queues: workload.QueueLadder{
				{MaxLength: 2 * simtime.Hour, MaxWait: 6 * simtime.Hour},
				{MaxLength: 0, MaxWait: 24 * simtime.Hour},
			}},
		"label differs": {Policy: policy.CarbonTime{}, Carbon: tr, Label: "renamed"},
		"seed without spot": {Policy: policy.CarbonTime{}, Carbon: tr, Seed: 12345,
			EvictionRate: 0.3, CheckpointInterval: simtime.Hour},
		"override for queue out of range": {Policy: policy.CarbonTime{}, Carbon: tr,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{7: simtime.Hour}},
	}
	for name, cfg := range equivalents {
		if got := mustFingerprint(t, cfg, jobs); got != want {
			t.Errorf("%s: fingerprint differs from base", name)
		}
	}
}

// TestFingerprintOverrideOrderInsensitive permutes map insertion order —
// the canonical encoding must sort keys, so iteration order artifacts can
// never split the cache.
func TestFingerprintOverrideOrderInsensitive(t *testing.T) {
	tr, jobs := fpFixture(t)
	mk := func(order []workload.Queue) Config {
		vals := map[workload.Queue]simtime.Duration{
			workload.QueueShort: 45 * simtime.Minute,
			workload.QueueLong:  5 * simtime.Hour,
		}
		override := make(map[workload.Queue]simtime.Duration, len(order))
		for _, q := range order {
			override[q] = vals[q]
		}
		return Config{Policy: policy.LowestWindow{}, Carbon: tr, AvgLengthOverride: override}
	}
	a := mustFingerprint(t, mk([]workload.Queue{workload.QueueShort, workload.QueueLong}), jobs)
	b := mustFingerprint(t, mk([]workload.Queue{workload.QueueLong, workload.QueueShort}), jobs)
	if a != b {
		t.Error("fingerprint depends on AvgLengthOverride insertion order")
	}
}

// TestFingerprintDistinguishes keeps the cache keys in step with Config:
// every field has an entry saying how Fingerprint and DecisionFingerprint
// treat it, and the test fails for a field with none. A field that can
// change a result but is left out of Fingerprint would let the cache
// replay one configuration's result for another.
func TestFingerprintDistinguishes(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionCAUS.Generate(24*10, 1)
	jobs2 := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(4)), 200, simtime.Week)
	// Spot, eviction and checkpointing are on in the full base so their
	// knobs reach the hash; the decision base is direct-eligible, so it
	// has a decision fingerprint to split.
	fullBase := Config{Policy: policy.CarbonTime{}, Carbon: tr,
		SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, CheckpointInterval: simtime.Hour}
	decisionBase := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	elastic := func(c *Config) { c.Elastic = workload.Degenerate(jobs) }
	noisy := func(tr *carbon.Trace, errPerDay float64, seed int64) func(*Config) {
		return func(c *Config) { c.CIS = carbon.NewNoisyService(tr, errPerDay, seed) }
	}
	seasonal := func(tr *carbon.Trace, trainingDays int, rho float64) func(*Config) {
		return func(c *Config) {
			s, err := forecast.NewSeasonalNaive(tr, trainingDays, rho)
			if err != nil {
				t.Fatal(err)
			}
			c.CIS = s
		}
	}

	type effect int
	const (
		splits effect = iota // the variant gets a different key
		same                 // the key ignores the field
		bypass               // the variant has no key: it is never cached
	)
	// Keyed by Config field name; "Field/detail" adds a variant of one
	// field, and "workload" varies the jobs instead of the config. prep
	// applies to the base and the variant alike.
	cases := map[string]struct {
		prep, set      func(*Config)
		jobs           *workload.Trace
		full, decision effect
	}{
		"Label":  {set: func(c *Config) { c.Label = "renamed" }, full: same, decision: same},
		"Policy": {set: func(c *Config) { c.Policy = policy.LowestWindow{} }, full: splits, decision: splits},
		"Policy/ecovisor percentile": {prep: func(c *Config) { c.Policy = policy.Ecovisor{} },
			set: func(c *Config) { c.Policy = policy.Ecovisor{ThresholdPercentile: 50} }, full: splits, decision: bypass},
		"Carbon": {set: func(c *Config) { c.Carbon = tr2 }, full: splits, decision: splits},
		"CIS": {set: func(c *Config) { c.CIS = opaqueCIS{carbon.NewPerfectService(tr)} },
			full: bypass, decision: bypass},
		"CIS/perfect over another trace": {set: func(c *Config) { c.CIS = carbon.NewPerfectService(tr2) },
			full: splits, decision: splits},
		// Forecast services are keyed by their recipe. Only the perfect
		// CIS has a decision projection, so each of them bypasses the
		// plan tier. A zero error rate still splits from the perfect CIS:
		// the two integrate forecasts in different float operation orders.
		"CIS/noisy":               {set: noisy(tr, 0, 1), full: splits, decision: bypass},
		"CIS/noisy trace":         {prep: noisy(tr, 0.05, 1), set: noisy(tr2, 0.05, 1), full: splits, decision: bypass},
		"CIS/noisy error rate":    {prep: noisy(tr, 0.05, 1), set: noisy(tr, 0.20, 1), full: splits, decision: bypass},
		"CIS/noisy seed":          {prep: noisy(tr, 0.05, 1), set: noisy(tr, 0.05, 2), full: splits, decision: bypass},
		"CIS/noisy one recipe":    {prep: noisy(tr, 0.05, 1), set: noisy(tr, 0.05, 1), full: same, decision: bypass},
		"CIS/seasonal":            {set: seasonal(tr, 7, 0.9), full: splits, decision: bypass},
		"CIS/seasonal trace":      {prep: seasonal(tr, 7, 0.9), set: seasonal(tr2, 7, 0.9), full: splits, decision: bypass},
		"CIS/seasonal training":   {prep: seasonal(tr, 7, 0.9), set: seasonal(tr, 8, 0.9), full: splits, decision: bypass},
		"CIS/seasonal rho":        {prep: seasonal(tr, 7, 0.9), set: seasonal(tr, 7, 0.5), full: splits, decision: bypass},
		"CIS/seasonal one recipe": {prep: seasonal(tr, 7, 0.9), set: seasonal(tr, 7, 0.9), full: same, decision: bypass},

		"Reserved":       {set: func(c *Config) { c.Reserved = 10 }, full: splits, decision: same},
		"WorkConserving": {set: func(c *Config) { c.WorkConserving = true }, full: splits, decision: bypass},
		"SpotMaxLen":     {set: func(c *Config) { c.SpotMaxLen = 4 * simtime.Hour }, full: splits, decision: bypass},
		"EvictionRate":   {set: func(c *Config) { c.EvictionRate = 0.10 }, full: splits, decision: same},
		"CheckpointInterval": {set: func(c *Config) { c.CheckpointInterval = 2 * simtime.Hour },
			full: splits, decision: same},
		"CheckpointOverhead": {set: func(c *Config) { c.CheckpointOverhead = 5 * simtime.Minute },
			full: splits, decision: same},
		"Pricing": {set: func(c *Config) {
			c.Pricing = cloud.Pricing{OnDemandHourly: 9.9, ReservedFraction: 0.5, SpotFraction: 0.1}
		}, full: splits, decision: same},
		"Power": {set: func(c *Config) { c.Power = cloud.Power{KWPerCPU: 0.5} }, full: splits, decision: same},
		"Queues/short bound": {set: func(c *Config) {
			c.Queues = workload.QueueLadder{{MaxLength: 4 * simtime.Hour, MaxWait: 6 * simtime.Hour}, {MaxWait: 24 * simtime.Hour}}
		}, full: splits, decision: splits},
		"Queues/short wait": {set: func(c *Config) { c.Queues = workload.PaperQueues(12*simtime.Hour, 24*simtime.Hour) },
			full: splits, decision: splits},
		"Queues/long wait": {set: func(c *Config) { c.Queues = workload.PaperQueues(6*simtime.Hour, 12*simtime.Hour) },
			full: splits, decision: splits},
		"Queues": {set: func(c *Config) {
			c.Queues = workload.QueueLadder{
				{MaxLength: simtime.Hour, MaxWait: 3 * simtime.Hour},
				{MaxLength: 4 * simtime.Hour, MaxWait: 6 * simtime.Hour},
				{MaxLength: 0, MaxWait: 24 * simtime.Hour},
			}
		}, full: splits, decision: splits},
		"Horizon": {set: func(c *Config) { c.Horizon = 5 * simtime.Day }, full: splits, decision: same},
		"AvgLengthOverride": {set: func(c *Config) {
			c.AvgLengthOverride = map[workload.Queue]simtime.Duration{workload.QueueLong: 7 * simtime.Hour}
		}, full: splits, decision: splits},
		"Elastic": {set: elastic, full: splits, decision: bypass},
		"Allocator": {prep: elastic, set: func(c *Config) { c.Allocator = policy.GreedyMarginal{} },
			full: splits, decision: bypass},
		"ElasticCapacity": {prep: elastic, set: func(c *Config) { c.ElasticCapacity = 8 },
			full: splits, decision: bypass},
		"RetainJobs": {set: func(c *Config) { c.RetainJobs = true }, full: bypass, decision: same},
		"Mechanism":  {set: func(c *Config) { c.Mechanism = MechanismEngine }, full: bypass, decision: bypass},
		"Seed":       {set: func(c *Config) { c.Seed = 99 }, full: splits, decision: same},
		"workload":   {jobs: jobs2, full: splits, decision: splits},
	}
	keys := []struct {
		name   string
		base   Config
		effect func(full, decision effect) effect
		fp     func(Config, *workload.Trace) ([32]byte, bool)
	}{
		{"fingerprint", fullBase, func(full, _ effect) effect { return full }, Config.Fingerprint},
		{"decision fingerprint", decisionBase, func(_, decision effect) effect { return decision }, Config.DecisionFingerprint},
	}
	covered := make(map[string]bool)
	for name, tc := range cases {
		covered[strings.SplitN(name, "/", 2)[0]] = true
		for _, key := range keys {
			base := key.base
			if tc.prep != nil {
				tc.prep(&base)
			}
			variant, variantJobs := base, jobs
			if tc.set != nil {
				tc.set(&variant)
			}
			if tc.jobs != nil {
				variantJobs = tc.jobs
			}
			got, ok := key.fp(variant, variantJobs)
			want, wantOK := key.fp(base, jobs)
			switch key.effect(tc.full, tc.decision) {
			case bypass:
				if ok {
					t.Errorf("%s: the variant has a %s, want none", name, key.name)
				}
			case splits:
				if !ok || !wantOK || got == want {
					t.Errorf("%s: %s does not split (variant ok=%v, base ok=%v)", name, key.name, ok, wantOK)
				}
			case same:
				if !ok || !wantOK || got != want {
					t.Errorf("%s: %s changed (variant ok=%v, base ok=%v)", name, key.name, ok, wantOK)
				}
			}
		}
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i).Name; !covered[f] {
			t.Errorf("Config.%s has no entry: decide how Fingerprint and DecisionFingerprint treat it, then add one", f)
		}
	}

	// Ecovisor's zero percentile means 30 — those must collide with each
	// other, not with other percentiles.
	e0 := mustFingerprint(t, Config{Policy: policy.Ecovisor{}, Carbon: tr}, jobs)
	e30 := mustFingerprint(t, Config{Policy: policy.Ecovisor{ThresholdPercentile: 30}, Carbon: tr}, jobs)
	if e0 != e30 {
		t.Error("Ecovisor{} and Ecovisor{30} must fingerprint equal")
	}
}

// TestFingerprintNotCacheable pins the bypass conditions: opaque CIS
// implementations, unknown policies, per-job retention, a pinned
// mechanism and nil inputs. A pinned run answered from the cache would
// compare its mechanism against whichever one filled the entry.
func TestFingerprintNotCacheable(t *testing.T) {
	tr, jobs := fpFixture(t)
	cases := map[string]Config{
		"opaque CIS": {Policy: policy.CarbonTime{}, Carbon: tr,
			CIS: opaqueCIS{carbon.NewNoisyService(tr, 0.05, 1)}},
		"retain jobs": {Policy: policy.CarbonTime{}, Carbon: tr, RetainJobs: true},
		"engine":      {Policy: policy.CarbonTime{}, Carbon: tr, Mechanism: MechanismEngine},
		"heap engine": {Policy: policy.CarbonTime{}, Carbon: tr, Mechanism: MechanismHeapEngine},
		"no policy":   {Carbon: tr},
		"no carbon":   {Policy: policy.CarbonTime{}},
	}
	for name, cfg := range cases {
		if _, ok := cfg.Fingerprint(jobs); ok {
			t.Errorf("%s: expected not fingerprintable", name)
		}
	}
	if _, ok := (Config{Policy: policy.CarbonTime{}, Carbon: tr}).Fingerprint(nil); ok {
		t.Error("nil jobs: expected not fingerprintable")
	}
}

func mustDecisionFingerprint(t *testing.T, cfg Config, jobs *workload.Trace) [32]byte {
	t.Helper()
	fp, ok := cfg.DecisionFingerprint(jobs)
	if !ok {
		t.Fatalf("config unexpectedly has no decision fingerprint: %+v", cfg)
	}
	return fp
}

// TestDecisionFingerprintEquivalence asserts the projection property the
// plan cache rests on: configurations that differ only in accounting
// knobs — reserved size, prices, the power model, the horizon, labels,
// retention, even the realized carbon trace (with the CIS pinned) — share
// one decision fingerprint, so a sweep over any of them decides once.
func TestDecisionFingerprintEquivalence(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionCAUS.Generate(24*10, 1)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	want := mustDecisionFingerprint(t, base, jobs)

	equivalents := map[string]Config{
		"reserved": {Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 500},
		"pricing": {Policy: policy.CarbonTime{}, Carbon: tr,
			Pricing: cloud.Pricing{OnDemandHourly: 9.9, ReservedFraction: 0.5, SpotFraction: 0.1}},
		"power": {Policy: policy.CarbonTime{}, Carbon: tr,
			Power: cloud.Power{KWPerCPU: 0.5}},
		"horizon":  {Policy: policy.CarbonTime{}, Carbon: tr, Horizon: 9 * simtime.Day},
		"label":    {Policy: policy.CarbonTime{}, Carbon: tr, Label: "renamed"},
		"retained": {Policy: policy.CarbonTime{}, Carbon: tr, RetainJobs: true},
		// The decisive trace is the CIS forecast, not the realized carbon
		// trace accounting integrates — the carbon-tax experiment's
		// schedule/bill pairs rely on exactly this sharing.
		"realized carbon trace": {Policy: policy.CarbonTime{}, Carbon: tr2,
			CIS: carbon.NewPerfectService(tr)},
		"explicit defaults": {Policy: policy.CarbonTime{}, Carbon: tr,
			Queues: workload.PaperQueues(workload.DefaultWaitShort, workload.DefaultWaitLong)},
		"override for queue out of range": {Policy: policy.CarbonTime{}, Carbon: tr,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{7: simtime.Hour}},
	}
	for name, cfg := range equivalents {
		if got := mustDecisionFingerprint(t, cfg, jobs); got != want {
			t.Errorf("%s: decision fingerprint differs from base", name)
		}
	}
}

// TestDecisionFingerprintDistinguishes asserts that every input the decide
// phase reads splits the fingerprint.
func TestDecisionFingerprintDistinguishes(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionCAUS.Generate(24*10, 1)
	jobs2 := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(4)), 200, simtime.Week)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	want := mustDecisionFingerprint(t, base, jobs)

	variants := map[string]struct {
		cfg  Config
		jobs *workload.Trace
	}{
		"policy":    {Config{Policy: policy.LowestWindow{}, Carbon: tr}, jobs},
		"cis trace": {Config{Policy: policy.CarbonTime{}, Carbon: tr, CIS: carbon.NewPerfectService(tr2)}, jobs},
		"workload":  {base, jobs2},
		"wait bound": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			Queues: workload.PaperQueues(12*simtime.Hour, workload.DefaultWaitLong)}, jobs},
		"queue ladder": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			Queues: workload.QueueLadder{{MaxLength: 4 * simtime.Hour, MaxWait: 6 * simtime.Hour}, {MaxWait: 24 * simtime.Hour}}}, jobs},
		"avg-length override": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{
				workload.QueueLong: 7 * simtime.Hour,
			}}, jobs},
	}
	for name, v := range variants {
		if got := mustDecisionFingerprint(t, v.cfg, v.jobs); got == want {
			t.Errorf("%s: decision fingerprint collides with base", name)
		}
	}

	// And it must never collide with the full simulation fingerprint of
	// the same configuration (distinct hash domains).
	if full := mustFingerprint(t, base, jobs); full == want {
		t.Error("decision fingerprint collides with the full fingerprint")
	}
}

// TestDecisionFingerprintBypass pins when a configuration has no decision
// projection: every non-direct-eligible shape (a pinned mechanism among
// them — it exists to exercise its mechanism end to end, and replaying a
// cached plan would skip the phase under test) and nil inputs. Retention,
// by contrast, must NOT spoil it.
func TestDecisionFingerprintBypass(t *testing.T) {
	tr, jobs := fpFixture(t)
	cases := map[string]Config{
		"engine":          {Policy: policy.CarbonTime{}, Carbon: tr, Mechanism: MechanismEngine},
		"heap engine":     {Policy: policy.CarbonTime{}, Carbon: tr, Mechanism: MechanismHeapEngine},
		"work-conserving": {Policy: policy.CarbonTime{}, Carbon: tr, WorkConserving: true},
		"spot":            {Policy: policy.CarbonTime{}, Carbon: tr, SpotMaxLen: 2 * simtime.Hour},
		"plan policy":     {Policy: policy.WaitAwhile{}, Carbon: tr},
		"opaque CIS": {Policy: policy.CarbonTime{}, Carbon: tr,
			CIS: opaqueCIS{carbon.NewPerfectService(tr)}},
		"no policy": {Carbon: tr},
		"no carbon": {Policy: policy.CarbonTime{}},
	}
	for name, cfg := range cases {
		if _, ok := cfg.DecisionFingerprint(jobs); ok {
			t.Errorf("%s: expected no decision fingerprint", name)
		}
	}
	eligible := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	if _, ok := eligible.DecisionFingerprint(nil); ok {
		t.Error("nil jobs: expected no decision fingerprint")
	}

	// Retention changes what the replay materializes, not what the decide
	// phase chooses — retained runs may share plans.
	retained := eligible
	retained.RetainJobs = true
	if _, ok := retained.DecisionFingerprint(jobs); !ok {
		t.Error("retained config should keep its decision fingerprint")
	}
}

// TestDecisionFingerprintGolden pins the canonical hash of a fixed
// configuration over the deterministic fixture. A change here means the
// decision fingerprint layout changed: on-disk plan artifacts silently
// orphan, and decisionFingerprintLayout must be bumped alongside.
func TestDecisionFingerprintGolden(t *testing.T) {
	tr, jobs := fpFixture(t)
	cfg := Config{Policy: policy.LowestWindow{}, Carbon: tr, Reserved: 42}
	fp := mustDecisionFingerprint(t, cfg, jobs)
	const want = "1d1b16cd19304eb7eddc7995118b1a6f15ba1de3930704c1341280c5318c4035"
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Errorf("decision fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}

// TestFingerprintGolden pins the full simulation fingerprint of a fixed
// configuration over the deterministic fixture, with every hashed knob
// set off its default. A change here means the result-cache key changed:
// on-disk cache entries silently orphan, and fingerprintLayout must be
// bumped alongside.
func TestFingerprintGolden(t *testing.T) {
	tr, jobs := fpFixture(t)
	cfg := Config{
		Policy:             policy.CarbonTime{},
		Carbon:             tr,
		Reserved:           42,
		WorkConserving:     true,
		SpotMaxLen:         4 * simtime.Hour,
		EvictionRate:       0.1,
		CheckpointInterval: simtime.Hour,
		AvgLengthOverride:  map[workload.Queue]simtime.Duration{workload.QueueLong: 7 * simtime.Hour},
		Seed:               7,
	}
	fp := mustFingerprint(t, cfg, jobs)
	const want = "5af5d8833c037937447657e8e8d0e4855b50278730ae0f0ba8722fb52f13fc36"
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Errorf("fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}
