package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// mustDecidePlan decides a plan or fails the test.
func mustDecidePlan(t *testing.T, cfg Config, jobs *workload.Trace) *DecisionPlan {
	t.Helper()
	plan, err := DecidePlan(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanCodecRoundTrip pins the plan artifact format: encode→decode is
// the identity, and every corruption mode is rejected with an error rather
// than a partial plan.
func TestPlanCodecRoundTrip(t *testing.T) {
	plan := &DecisionPlan{
		starts:  []simtime.Time{0, 5, 5, 1 << 40},
		classes: []uint8{0, 0, 0, 0},
	}
	data := EncodeDecisionPlan(plan)
	got, err := DecodeDecisionPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plan) {
		t.Errorf("round trip: got %+v, want %+v", got, plan)
	}

	empty := &DecisionPlan{}
	if got, err := DecodeDecisionPlan(EncodeDecisionPlan(empty)); err != nil || got.NumJobs() != 0 {
		t.Errorf("empty plan round trip: %+v, %v", got, err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:10] },
		"truncated payload": func(b []byte) []byte {
			// Drop one start and re-sign: the payload-length check, not
			// the checksum, must reject it.
			return resign(b[: len(b)-4-9 : len(b)-4-9])
		},
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return resign(c[:len(c)-4])
		},
		"bad version": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] ^= 0xff
			return resign(c[:len(c)-4])
		},
		"oversized job count": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[16], c[17] = 0xff, 0xff
			return resign(c[:len(c)-4])
		},
		"flipped start bit": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[24] ^= 0x01
			return c // checksum now stale — crc must catch it
		},
		"trailing garbage": func(b []byte) []byte {
			return resign(append(append([]byte(nil), b[:len(b)-4]...), 0xaa))
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		if _, err := DecodeDecisionPlan(corrupt(data)); err == nil {
			t.Errorf("%s: decode accepted corrupt data", name)
		}
	}
}

// resign appends a fresh crc32 trailer to a tampered plan body so decode
// exercises the structural checks behind the checksum.
func resign(body []byte) []byte {
	le := binary.LittleEndian
	return le.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestDecidePlanEligibility pins the plan seam's admission rule: eligible
// configs yield a plan covering every job; ineligible ones fail with
// ErrNoPlan.
func TestDecidePlanEligibility(t *testing.T) {
	tr, jobs := randomInstance(53)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.RetainJobs = false
	plan := mustDecidePlan(t, cfg, jobs)
	if plan.NumJobs() != len(jobs.Jobs) {
		t.Errorf("plan covers %d jobs, trace has %d", plan.NumJobs(), len(jobs.Jobs))
	}

	wc := cfg
	wc.WorkConserving = true
	wc.Reserved = 10
	if _, err := DecidePlan(context.Background(), wc, jobs); !errors.Is(err, ErrNoPlan) {
		t.Errorf("work-conserving: got %v, want ErrNoPlan", err)
	}
	if _, err := RunWithPlan(context.Background(), wc, jobs, plan); !errors.Is(err, ErrNoPlan) {
		t.Errorf("RunWithPlan on ineligible config: got %v, want ErrNoPlan", err)
	}
}

// TestRunWithPlanRejectsBadPlans asserts a malformed plan surfaces as an
// error, never as wrong numbers.
func TestRunWithPlanRejectsBadPlans(t *testing.T) {
	tr, jobs := randomInstance(54)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.RetainJobs = false

	if _, err := RunWithPlan(context.Background(), cfg, jobs, nil); err == nil {
		t.Error("nil plan accepted")
	}
	short := &DecisionPlan{starts: make([]simtime.Time, 1), classes: make([]uint8, 1)}
	if _, err := RunWithPlan(context.Background(), cfg, jobs, short); err == nil {
		t.Error("wrong-length plan accepted")
	}
	early := mustDecidePlan(t, cfg, jobs)
	tampered := &DecisionPlan{
		starts:  append([]simtime.Time(nil), early.starts...),
		classes: append([]uint8(nil), early.classes...),
	}
	tampered.starts[0] = jobs.Jobs[0].Arrival - 1
	if _, err := RunWithPlan(context.Background(), cfg, jobs, tampered); err == nil {
		t.Error("start-before-arrival plan accepted")
	}
}

// TestPlanReplayMatchesDirect is the seam's correctness pin: decide once,
// then replay the plan under accounting knobs the decide never saw —
// different reserved sizes, prices, power model, realized carbon trace,
// retention — and require byte-identical results to a full Run of each
// configuration.
func TestPlanReplayMatchesDirect(t *testing.T) {
	tr, jobs := randomInstance(55)
	tr2, _ := randomInstance(56)
	decided := baseConfig(tr, policy.CarbonTime{})
	decided.RetainJobs = false
	plan := mustDecidePlan(t, decided, jobs)

	variants := map[string]func(*Config){
		"same":          func(*Config) {},
		"reserved-25":   func(c *Config) { c.Reserved = 25 },
		"reserved-huge": func(c *Config) { c.Reserved = 1 << 20 },
		"pricing": func(c *Config) {
			c.Pricing = cloud.Pricing{OnDemandHourly: 7, ReservedFraction: 0.3, SpotFraction: 0.1}
		},
		"power":   func(c *Config) { c.Power = cloud.Power{KWPerCPU: 0.25} },
		"horizon": func(c *Config) { c.Horizon = decided.Horizon + 3*simtime.Day },
		"realized-carbon": func(c *Config) {
			// Accounting integrates a different realized trace; decisions
			// still follow the decided CIS.
			c.Carbon = tr2
			c.CIS = decided.Canonical().CIS
		},
		"retained": func(c *Config) { c.RetainJobs = true },
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := decided
			mutate(&cfg)
			if dfpA, okA := decided.DecisionFingerprint(jobs); okA {
				if dfpB, okB := cfg.DecisionFingerprint(jobs); !okB || dfpA != dfpB {
					t.Fatalf("variant does not share the decision fingerprint (ok=%v)", okB)
				}
			} else {
				t.Fatal("base config has no decision fingerprint")
			}
			replayed, err := RunWithPlan(context.Background(), cfg, jobs, plan)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, replayed, full)
		})
	}

	// The roundtripped artifact must replay identically to the in-memory
	// plan — the disk tier serves decoded plans.
	decoded, err := DecodeDecisionPlan(EncodeDecisionPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	cfg := decided
	cfg.Reserved = 40
	a, err := RunWithPlan(context.Background(), cfg, jobs, decoded)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWithPlan(context.Background(), cfg, jobs, plan)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, a, b)
}

// FuzzPlanReplayVsDirect fuzzes (config, trace) pairs through
// decide-once-replay-under-mutation vs a full direct run, pinning the
// byte-identity the plan cache rests on (the replay-side analogue of
// FuzzDirectVsEngine).
func FuzzPlanReplayVsDirect(f *testing.F) {
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
		base := baseConfig(tr, policies[policyIdx])
		base.RetainJobs = false
		base.WaitShort = simtime.Duration(wait) * simtime.Hour
		base.WaitLong = simtime.Duration(wait) * 4 * simtime.Hour
		directWorkersOverride.Store(int32(seed%4 + 1))
		defer directWorkersOverride.Store(0)

		// Decide with the accounting knobs zeroed, replay with them set —
		// the exact shape of a reserved sweep served by one plan.
		plan, err := DecidePlan(context.Background(), base, jobs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Reserved = reserved
		cfg.RetainJobs = retain
		replayed, err := RunWithPlan(context.Background(), cfg, jobs, plan)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalResults(t, replayed, full)
	})
}

// TestReplayAllocs pins the scratch pooling: a replayed cell must not
// re-allocate the sweep's endpoint/order columns, so its allocation count
// stays flat — a handful of accumulator columns and fixed-size result
// framing — no matter how many times it runs.
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random, so pooled counts are not stable")
	}
	tr, jobs := randomInstance(57)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.RetainJobs = false
	cfg.Reserved = 25
	plan := mustDecidePlan(t, cfg, jobs)
	ctx := context.Background()

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunWithPlan(ctx, cfg, jobs, plan); err != nil {
			t.Fatal(err)
		}
	})
	// Pooled replay measures 18 allocs/run at any GOMAXPROCS. A replay
	// without the pool measures 22 (the scratch, its allocation column,
	// the usage deltas and their storage); one that loses the plan's
	// memoized endpoint orders measures 23 or more (two order and three
	// rank columns). The ceiling sits between, so both regressions fail.
	const ceiling = 20
	if allocs > ceiling {
		t.Errorf("replay allocates %.0f objects/run, want <= %d (scratch pooling or endpoint-order memo regressed?)", allocs, ceiling)
	}
}

// TestShardedScanReportsLowestBadStart pins RunWithPlan's parallel shape
// check: with bad starts in two shards, the error names the lower job with
// exactly the sequential check's message, on every run.
func TestShardedScanReportsLowestBadStart(t *testing.T) {
	tr, jobs := randomInstance(58)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.RetainJobs = false
	plan := mustDecidePlan(t, cfg, jobs)
	const shards = 4
	bounds := par.Shards(shards, jobs.Len())
	for _, bad := range [][2]int{
		{bounds[1].Lo, bounds[3].Hi - 1},
		{bounds[2].Hi - 1, bounds[3].Lo},
		{bounds[0].Hi - 1, bounds[1].Lo},
	} {
		tampered := &DecisionPlan{
			starts:  append([]simtime.Time(nil), plan.starts...),
			classes: append([]uint8(nil), plan.classes...),
		}
		for _, i := range bad {
			tampered.starts[i] = jobs.Jobs[i].Arrival - 1
		}
		lo := bad[0]
		want := fmt.Sprintf("core: plan starts job %d at %v before its arrival %v",
			lo, tampered.starts[lo], jobs.Jobs[lo].Arrival)
		for _, w := range []int32{1, shards} {
			withShards(t, w)
			for rep := 0; rep < 20; rep++ {
				_, err := RunWithPlan(context.Background(), cfg, jobs, tampered)
				if err == nil || err.Error() != want {
					t.Fatalf("%d shards, bad starts %v: got %v, want %q", w, bad, err, want)
				}
			}
		}
	}
}
