package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
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
	plan := &DecisionPlan{starts: []simtime.Time{0, 5, 5, 1 << 40}}
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
			return resign(b[: len(b)-4-8 : len(b)-4-8])
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

// FuzzDecodeDecisionPlan feeds the plan decoder arbitrary bytes: no input
// may panic, and an accepted plan must re-encode to exactly the input.
// With sign set, resign appends a valid crc trailer to the input, so
// mutations reach the structural checks behind the checksum.
func FuzzDecodeDecisionPlan(f *testing.F) {
	for _, plan := range []*DecisionPlan{
		{},
		{starts: []simtime.Time{7}},
		{starts: []simtime.Time{0, 5, 5, 1 << 40}},
		// Starts with the sign bit set: decoding must restore the exact
		// bit pattern, not a clamped or unsigned value.
		{starts: []simtime.Time{-1, 1<<63 - 1}},
	} {
		data := EncodeDecisionPlan(plan)
		f.Add(data, false)
		body := data[:len(data)-4]
		for n := 0; n < len(body); n++ {
			f.Add(data[:n], false)
			f.Add(body[:n], true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sign bool) {
		if sign {
			data = resign(data)
		}
		plan, err := DecodeDecisionPlan(data)
		if err != nil {
			if plan != nil {
				t.Fatal("decoder returned a plan with its error")
			}
			return
		}
		if back := EncodeDecisionPlan(plan); !bytes.Equal(back, data) {
			t.Fatalf("accepted plan re-encodes to %d different bytes (input %d)", len(back), len(data))
		}
	})
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
	short := &DecisionPlan{starts: make([]simtime.Time, 1)}
	if _, err := RunWithPlan(context.Background(), cfg, jobs, short); err == nil {
		t.Error("wrong-length plan accepted")
	}
	early := mustDecidePlan(t, cfg, jobs)
	tampered := &DecisionPlan{starts: append([]simtime.Time(nil), early.starts...)}
	tampered.starts[0] = jobs.Jobs[0].Arrival - 1
	if _, err := RunWithPlan(context.Background(), cfg, jobs, tampered); err == nil {
		t.Error("start-before-arrival plan accepted")
	}
}

// TestPlanReplayMatchesDirect is the seam's correctness pin: decide once,
// then replay the plan under accounting knobs the decide never saw —
// different reserved sizes, prices, power model, realized carbon trace,
// queue bounds, retention — and require byte-identical results to a full
// Run of each configuration. Variants run in a fixed order, each twice:
// first right after a replay whose memo key differs from the variant's in
// one component (realized trace, power or queue bounds), so it must
// compute and publish its own schedule columns, then right after itself,
// so it accounts over the columns its first replay published.
func TestPlanReplayMatchesDirect(t *testing.T) {
	tr, jobs := randomInstance(55)
	tr2, _ := randomInstance(56)
	decided := baseConfig(tr, policy.CarbonTime{})
	decided.RetainJobs = false
	// One wait and one length estimate for both queues: where the bound
	// between them sits then changes jobs' queue tags but no decision, so
	// the plan replays under other queue bounds too.
	decided.Queues = workload.PaperQueues(12*simtime.Hour, 12*simtime.Hour)
	decided.AvgLengthOverride = map[workload.Queue]simtime.Duration{0: 3 * simtime.Hour, 1: 3 * simtime.Hour}
	plan := mustDecidePlan(t, decided, jobs)

	variants := []struct {
		name   string
		mutate func(*Config)
		// ownKey marks the variants whose memo key differs from the
		// decided config's in one component; the decided config precedes
		// them. The rest share its key and are preceded by themselves
		// under another power model.
		ownKey bool
	}{
		{name: "same", mutate: func(*Config) {}},
		{name: "reserved-25", mutate: func(c *Config) { c.Reserved = 25 }},
		{name: "reserved-huge", mutate: func(c *Config) { c.Reserved = 1 << 20 }},
		{name: "pricing", mutate: func(c *Config) {
			c.Pricing = cloud.Pricing{OnDemandHourly: 7, ReservedFraction: 0.3, SpotFraction: 0.1}
		}},
		{name: "power", mutate: func(c *Config) { c.Power = cloud.Power{KWPerCPU: 0.25} }, ownKey: true},
		{name: "horizon", mutate: func(c *Config) { c.Horizon = decided.Horizon + 3*simtime.Day }},
		{name: "realized-carbon", mutate: func(c *Config) {
			// Accounting integrates a different realized trace; decisions
			// still follow the decided CIS.
			c.Carbon = tr2
			c.CIS = decided.Canonical().CIS
		}, ownKey: true},
		{name: "queue-bounds", mutate: func(c *Config) {
			c.Queues = workload.QueueLadder{{MaxLength: 5 * simtime.Hour, MaxWait: 12 * simtime.Hour}, {MaxWait: 12 * simtime.Hour}}
		}, ownKey: true},
		{name: "retained", mutate: func(c *Config) { c.RetainJobs = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := decided
			v.mutate(&cfg)
			if v.name == "queue-bounds" {
				// The bounds enter the decision fingerprint, so check the
				// decisions themselves.
				if again := mustDecidePlan(t, cfg, jobs); !reflect.DeepEqual(again.starts, plan.starts) {
					t.Fatal("variant decides differently from the plan")
				}
			} else if dfpA, okA := decided.DecisionFingerprint(jobs); okA {
				if dfpB, okB := cfg.DecisionFingerprint(jobs); !okB || dfpA != dfpB {
					t.Fatalf("variant does not share the decision fingerprint (ok=%v)", okB)
				}
			} else {
				t.Fatal("base config has no decision fingerprint")
			}
			prev := decided
			if !v.ownKey {
				prev = cfg
				prev.Power = cloud.Power{KWPerCPU: 0.5}
			}
			for _, c := range []Config{prev, cfg, cfg} {
				replayed, err := RunWithPlan(context.Background(), c, jobs, plan)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Run(c, jobs)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, replayed, full)
			}
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
// FuzzDirectVsEngine). Each plan replays twice, under mutations mutA and
// mutB, so the second replay meets the memo the first one published: it
// hits when both mutations keep the memo key and misses when they do not.
func FuzzPlanReplayVsDirect(f *testing.F) {
	f.Add(int64(1), 0, 0, int64(5), uint8(0), uint8(6))
	f.Add(int64(2), 25, 1, int64(8), uint8(5), uint8(1))
	f.Add(int64(3), 1000, 2, int64(13), uint8(2), uint8(8))
	f.Add(int64(4), 7, 3, int64(2), uint8(4), uint8(4))
	f.Add(int64(5), 120, 4, int64(21), uint8(3), uint8(9))
	f.Add(int64(6), 40, 4, int64(6), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, reserved, policyIdx int, wait int64, mutA, mutB uint8) {
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
		realized, _ := randomInstance((seed+1)%64 + 1)
		base := baseConfig(tr, policies[policyIdx])
		base.RetainJobs = false
		base.Queues = workload.PaperQueues(simtime.Duration(wait)*simtime.Hour, simtime.Duration(wait)*4*simtime.Hour)
		directWorkersOverride.Store(int32(seed%4 + 1))
		defer directWorkersOverride.Store(0)

		// Decide with the accounting knobs zeroed, replay with them set —
		// the exact shape of a reserved sweep served by one plan.
		plan, err := DecidePlan(context.Background(), base, jobs)
		if err != nil {
			t.Fatal(err)
		}
		// A mutation's low digit (base 6) picks the knob, the rest its
		// value, so equal mutations share a memo key and unequal ones may.
		for _, m := range []uint8{mutA, mutB} {
			cfg := base
			cfg.Reserved = reserved
			v := int(m / 6)
			switch m % 6 {
			case 0:
				cfg.Reserved += 7 * v
			case 1:
				cfg.Pricing = cloud.Pricing{OnDemandHourly: 1 + float64(v), ReservedFraction: 0.3, SpotFraction: 0.1}
			case 2:
				cfg.Power = cloud.Power{KWPerCPU: 0.01 * float64(1+v%3)}
			case 3:
				cfg.Horizon = tr.Horizon() + simtime.Duration(v)*simtime.Day
			case 4:
				cfg.Carbon, cfg.CIS = realized, base.Canonical().CIS
			case 5:
				cfg.RetainJobs = true
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
		}
	})
}

// TestConcurrentPlanReplays replays one fresh plan from 8 goroutines at
// once, each cell under its own reserved size, prices or realized trace,
// so replays race the memo's first publication and its replacement under
// another key. Every result must equal a full Run byte for byte, and
// every cell's accumulator must still encode, after all replays, to the
// bytes it had right after its own: cells that share schedule columns
// must never write them.
func TestConcurrentPlanReplays(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*30, 61)
	tr2 := carbon.RegionSAAU.Generate(24*30, 62)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(newRand(63), 4000, simtime.Week)
	base := baseConfig(tr, policy.CarbonTime{})
	base.RetainJobs = false
	cfgs := make([]Config, 8)
	for g := range cfgs {
		cfg := base
		cfg.Reserved = 10 * g
		switch g % 3 {
		case 1:
			cfg.Pricing = cloud.Pricing{OnDemandHourly: 2 + float64(g), ReservedFraction: 0.4, SpotFraction: 0.2}
		case 2:
			cfg.Carbon, cfg.CIS = tr2, base.Canonical().CIS
		}
		cfgs[g] = cfg
	}
	want := make([]*metrics.Result, len(cfgs))
	for g, cfg := range cfgs {
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res
	}
	for round := 0; round < 4; round++ {
		plan := mustDecidePlan(t, base, jobs)
		got := make([]*metrics.Result, len(cfgs))
		bytesAfter := make([][]byte, len(cfgs))
		errs := make([]error, len(cfgs))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range cfgs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g], errs[g] = RunWithPlan(context.Background(), cfgs[g], jobs, plan)
				if errs[g] == nil {
					bytesAfter[g] = metrics.EncodeAccumulator(got[g].Accumulator())
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range cfgs {
			if errs[g] != nil {
				t.Fatalf("round %d, cell %d: %v", round, g, errs[g])
			}
			assertIdenticalResults(t, got[g], want[g])
			if !bytes.Equal(metrics.EncodeAccumulator(got[g].Accumulator()), bytesAfter[g]) {
				t.Fatalf("round %d: cell %d's accumulator changed after its replay returned", round, g)
			}
		}
	}
}

// TestReplayAllocs pins the scratch pooling and the plan memo: a replayed
// cell must not re-allocate the sweep's endpoint/order columns or the
// schedule columns, so its allocation count stays flat — the cost column,
// usage bins and fixed-size result framing — no matter how many times it
// runs.
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
	// A pooled replay that hits the memo measures 11 allocs/run at any
	// GOMAXPROCS. One that misses the memo's schedule columns measures 17
	// (five columns and the republished memo); one without the pool 15
	// (the scratch, its allocation column, the usage deltas and their
	// storage); one that loses the memoized endpoint orders 21
	// (two order and three rank columns besides the schedule columns).
	// The ceiling sits between, so each regression fails.
	const ceiling = 13
	if allocs > ceiling {
		t.Errorf("replay allocates %.0f objects/run, want <= %d (scratch pooling or plan memo regressed?)", allocs, ceiling)
	}
}

// TestRunWithPlanFusedScanFallback pins the fallback of RunWithPlan's
// fused validation scan: when a trace fails it, the two checks rerun
// apart, so an inverted or misnumbered trace is rebuilt and replays
// exactly like a full Run of it, and an invalid job fails with Run's
// error text — with the inversion on a shard boundary, mid-shard, or on
// a boundary between the fused scan's blocks.
func TestRunWithPlanFusedScanFallback(t *testing.T) {
	cfg := baseConfig(flatTrace(48, 100), policy.CarbonTime{})
	cfg.RetainJobs = false
	for _, c := range []struct {
		n, inverted int // the inversion swaps the order of jobs inverted-1 and inverted
		shards      int32
	}{
		{40, 20, 1},
		{40, 20, 2},
		{40, 30, 4},
		{2*planScanBlock + 10, planScanBlock, 1},
	} {
		withShards(t, c.shards)
		inverted := append([]workload.Job(nil), evenTrace(c.n).Jobs...)
		inverted[c.inverted-1].Arrival = inverted[c.inverted].Arrival + 1
		misnumbered := append([]workload.Job(nil), evenTrace(c.n).Jobs...)
		misnumbered[c.n-1].ID = 0
		for name, jobs := range map[string][]workload.Job{"inverted": inverted, "misnumbered": misnumbered} {
			tr := &workload.Trace{Name: name, Jobs: jobs}
			plan := mustDecidePlan(t, cfg, tr)
			replayed, err := RunWithPlan(context.Background(), cfg, tr, plan)
			if err != nil {
				t.Fatalf("%d jobs, %d shards, %s: %v", c.n, c.shards, name, err)
			}
			full, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, replayed, full)
		}

		invalid := append([]workload.Job(nil), evenTrace(c.n).Jobs...)
		invalid[c.n-1].CPUs = 0
		_, err := RunWithPlan(context.Background(), cfg, &workload.Trace{Name: "invalid", Jobs: invalid},
			mustDecidePlan(t, cfg, evenTrace(c.n)))
		want := fmt.Sprintf("core: run failed: workload: job %d has non-positive CPUs 0", c.n-1)
		if err == nil || err.Error() != want {
			t.Errorf("%d jobs, %d shards: invalid last job: got %v, want %q", c.n, c.shards, err, want)
		}
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
		tampered := &DecisionPlan{starts: append([]simtime.Time(nil), plan.starts...)}
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
