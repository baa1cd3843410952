package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Round-number fixtures: $1/h on-demand, 0.01 kW per CPU, so a 1-CPU hour
// at CI 100 emits exactly 1 g and costs exactly $1 on demand.
var (
	testPricing = cloud.Pricing{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 0.2}
	testPower   = cloud.Power{KWPerCPU: 0.01}
)

func flatTrace(hours int, ci float64) *carbon.Trace {
	vals := make([]float64, hours)
	for i := range vals {
		vals[i] = ci
	}
	return carbon.MustTrace("flat", vals)
}

func baseConfig(tr *carbon.Trace, p policy.Policy) Config {
	return Config{
		Policy:  p,
		Carbon:  tr,
		Pricing: testPricing,
		Power:   testPower,
		// The hand-checked tests assert on individual job records, which
		// only exist when retention is on.
		RetainJobs: true,
	}
}

func oneJob(length simtime.Duration, cpus int) *workload.Trace {
	return workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: length, CPUs: cpus},
	})
}

func TestNoWaitHandChecked(t *testing.T) {
	tr := flatTrace(48, 100)
	res, err := Run(baseConfig(tr, policy.NoWait{}), oneJob(2*simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("%d job records", len(res.Jobs))
	}
	j := res.Jobs[0]
	if j.Start != 0 || j.Finish != simtime.Time(2*simtime.Hour) || j.Waiting != 0 {
		t.Errorf("timing: %+v", j)
	}
	// Carbon: 100 g/kWh × 0.01 kW × 2 h = 2 g; baseline identical.
	if math.Abs(j.Carbon-2) > 1e-9 || math.Abs(j.BaselineCarbon-2) > 1e-9 {
		t.Errorf("carbon = %v baseline = %v", j.Carbon, j.BaselineCarbon)
	}
	// Cost: 2 h on demand at $1/h.
	if math.Abs(j.UsageCost-2) > 1e-9 {
		t.Errorf("cost = %v", j.UsageCost)
	}
	if math.Abs(res.TotalCost()-2) > 1e-9 {
		t.Errorf("total cost = %v", res.TotalCost())
	}
	if j.CPUHours[cloud.OnDemand] != 2 || j.CPUHours[cloud.Reserved] != 0 {
		t.Errorf("cpu hours = %v", j.CPUHours)
	}
}

func TestReservedPreferredAndUpfrontCharged(t *testing.T) {
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.Reserved = 2
	res, err := Run(cfg, oneJob(simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.CPUHours[cloud.Reserved] != 1 || j.CPUHours[cloud.OnDemand] != 0 {
		t.Errorf("placement: %v", j.CPUHours)
	}
	if j.UsageCost != 0 {
		t.Errorf("reserved usage should cost nothing marginally, got %v", j.UsageCost)
	}
	// Upfront: 2 units × 100 h × $0.40.
	if math.Abs(res.TotalCost()-80) > 1e-9 {
		t.Errorf("total cost = %v, want 80", res.TotalCost())
	}
	if util := res.ReservedUtilization(); math.Abs(util-1.0/200) > 1e-12 {
		t.Errorf("utilization = %v", util)
	}
}

func TestReservedOverflowSplitsToOnDemand(t *testing.T) {
	tr := flatTrace(48, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.Reserved = 1
	res, err := Run(cfg, oneJob(simtime.Hour, 3))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.CPUHours[cloud.Reserved] != 1 || j.CPUHours[cloud.OnDemand] != 2 {
		t.Errorf("split placement: %v", j.CPUHours)
	}
	if math.Abs(j.UsageCost-2) > 1e-9 {
		t.Errorf("cost = %v", j.UsageCost)
	}
	// Carbon covers all 3 CPUs: 100 × 0.01 × 1 h × 3 = 3 g.
	if math.Abs(j.Carbon-3) > 1e-9 {
		t.Errorf("carbon = %v", j.Carbon)
	}
}

func TestWorkConservingImmediateStart(t *testing.T) {
	// AllWait would delay to now+W, but an idle reserved unit means the
	// job starts immediately.
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.AllWait{})
	cfg.Reserved = 1
	cfg.WorkConserving = true
	res, err := Run(cfg, oneJob(simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Waiting != 0 {
		t.Errorf("waiting = %v, want 0", res.Jobs[0].Waiting)
	}
	if res.Jobs[0].CPUHours[cloud.Reserved] != 1 {
		t.Errorf("placement: %v", res.Jobs[0].CPUHours)
	}
}

func TestWorkConservingEarlyStartOnRelease(t *testing.T) {
	// Job A holds the single reserved unit for 2 h. Job B arrives at
	// 1 h; AllWait would run it at 1h+6h=7h, but A's completion at 2 h
	// frees the unit and B starts there.
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.AllWait{})
	cfg.Reserved = 1
	cfg.WorkConserving = true
	jobs := workload.MustTrace("two", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
		{Arrival: simtime.Time(simtime.Hour), Length: simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Jobs[1]
	if b.Start != simtime.Time(2*simtime.Hour) {
		t.Errorf("B started at %v, want 2h", b.Start)
	}
	if b.Waiting != simtime.Hour {
		t.Errorf("B waiting = %v, want 1h", b.Waiting)
	}
	if b.CPUHours[cloud.Reserved] != 1 {
		t.Errorf("B placement: %v", b.CPUHours)
	}
}

func TestWorkConservingFallsBackToOnDemandAtPlannedStart(t *testing.T) {
	// The reserved unit stays busy past B's maximum wait; B must start
	// at its planned time on on-demand capacity.
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.AllWait{})
	cfg.Reserved = 1
	cfg.WorkConserving = true
	jobs := workload.MustTrace("two", []workload.Job{
		{Arrival: 0, Length: 20 * simtime.Hour, CPUs: 1}, // long queue: W=24h... keep queue short? length 20h → long queue
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},      // short queue: W=6h
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Jobs[1]
	if b.Start != simtime.Time(6*simtime.Hour) {
		t.Errorf("B started at %v, want 6h (Wshort)", b.Start)
	}
	if b.CPUHours[cloud.OnDemand] != 1 {
		t.Errorf("B placement: %v", b.CPUHours)
	}
}

func TestCarbonAwareStartPicksTrough(t *testing.T) {
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = 500
	}
	vals[4] = 50 // trough at hour 4
	tr := carbon.MustTrace("dip", vals)
	res, err := Run(baseConfig(tr, policy.LowestWindow{}), oneJob(simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Start != simtime.Time(4*simtime.Hour) {
		t.Errorf("start = %v, want hour 4", j.Start)
	}
	// Carbon at trough: 50 × 0.01 × 1 = 0.5 g vs baseline 5 g.
	if math.Abs(j.Carbon-0.5) > 1e-9 || math.Abs(j.BaselineCarbon-5) > 1e-9 {
		t.Errorf("carbon = %v baseline = %v", j.Carbon, j.BaselineCarbon)
	}
	if j.Waiting != 4*simtime.Hour {
		t.Errorf("waiting = %v", j.Waiting)
	}
}

func TestSuspendResumeAccounting(t *testing.T) {
	// CI: expensive except hours 2 and 5; WaitAwhile splits a 2 h job
	// across the two cheap slots.
	vals := []float64{900, 900, 100, 900, 900, 100, 900, 900, 900, 900}
	tr := carbon.MustTrace("two-dips", vals)
	res, err := Run(baseConfig(tr, policy.WaitAwhile{}), oneJob(2*simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// Runs hours [2,3) and [5,6): carbon = (100+100) × 0.01 = 2 g.
	if math.Abs(j.Carbon-2) > 1e-9 {
		t.Errorf("carbon = %v, want 2", j.Carbon)
	}
	if j.Start != simtime.Time(2*simtime.Hour) || j.Finish != simtime.Time(6*simtime.Hour) {
		t.Errorf("start/finish = %v/%v", j.Start, j.Finish)
	}
	// Waiting: 6 h completion − 2 h run = 4 h of pauses.
	if j.Waiting != 4*simtime.Hour {
		t.Errorf("waiting = %v", j.Waiting)
	}
	if math.Abs(j.UsageCost-2) > 1e-9 {
		t.Errorf("cost = %v", j.UsageCost)
	}
}

func TestSpotCleanExecution(t *testing.T) {
	tr := flatTrace(48, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.SpotMaxLen = 2 * simtime.Hour
	res, err := Run(cfg, oneJob(2*simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.CPUHours[cloud.Spot] != 2 || j.CPUHours[cloud.OnDemand] != 0 {
		t.Errorf("placement: %v", j.CPUHours)
	}
	// Spot: 2 h × $0.20.
	if math.Abs(j.UsageCost-0.4) > 1e-9 {
		t.Errorf("cost = %v", j.UsageCost)
	}
	if j.Evictions != 0 || j.WastedCPUHours != 0 {
		t.Errorf("unexpected eviction: %+v", j)
	}
}

func TestSpotIneligibleLongJob(t *testing.T) {
	tr := flatTrace(48, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.SpotMaxLen = 2 * simtime.Hour
	res, err := Run(cfg, oneJob(3*simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].CPUHours[cloud.Spot] != 0 {
		t.Errorf("long job must not use spot: %v", res.Jobs[0].CPUHours)
	}
}

func TestSpotEvictionRestartsOnDemand(t *testing.T) {
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.SpotMaxLen = 10 * simtime.Hour
	cfg.EvictionRate = 0.95 // essentially guaranteed eviction at hour 1
	cfg.Seed = 1
	res, err := Run(cfg, oneJob(5*simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Evictions != 1 {
		t.Fatalf("evictions = %d", j.Evictions)
	}
	if j.WastedCPUHours <= 0 || j.WastedCost <= 0 || j.WastedCarbon <= 0 {
		t.Errorf("waste not recorded: %+v", j)
	}
	// Progress lost: total executed hours = wasted + full 5 h rerun.
	total := j.CPUHours[cloud.Spot] + j.CPUHours[cloud.OnDemand]
	if math.Abs(total-(j.WastedCPUHours+5)) > 1e-9 {
		t.Errorf("hours: spot=%v od=%v wasted=%v", j.CPUHours[cloud.Spot], j.CPUHours[cloud.OnDemand], j.WastedCPUHours)
	}
	// Finish = evictAt + 5 h, and waiting reflects the lost time.
	wantFinish := j.Start.Add(simtime.Duration(j.WastedCPUHours*60) + 5*simtime.Hour)
	if j.Finish != wantFinish {
		t.Errorf("finish = %v, want %v", j.Finish, wantFinish)
	}
	if j.Waiting != j.Finish.Sub(j.Arrival)-j.Length {
		t.Errorf("waiting identity broken: %+v", j)
	}
}

func TestSpotRESRestartPrefersReserved(t *testing.T) {
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.SpotMaxLen = 10 * simtime.Hour
	cfg.EvictionRate = 0.95
	cfg.Reserved = 2
	cfg.Seed = 1
	res, err := Run(cfg, oneJob(5*simtime.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Evictions != 1 {
		t.Fatalf("evictions = %d", j.Evictions)
	}
	if j.CPUHours[cloud.Reserved] != 5 {
		t.Errorf("restart should land on idle reserved: %v", j.CPUHours)
	}
}

func TestAllJobsComplete(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*40, 3)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(newRand(7), 300, simtime.Week)
	policies := []policy.Policy{
		policy.NoWait{}, policy.AllWait{}, policy.LowestSlot{},
		policy.LowestWindow{}, policy.CarbonTime{}, policy.WaitAwhile{},
		policy.WaitAwhileEst{}, policy.Ecovisor{},
	}
	for _, p := range policies {
		cfg := baseConfig(tr, p)
		if p.Name() == "AllWait-Threshold" {
			cfg.WorkConserving = true
			cfg.Reserved = 5
		}
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Jobs) != jobs.Len() {
			t.Fatalf("%s: %d of %d jobs finished", p.Name(), len(res.Jobs), jobs.Len())
		}
		for _, j := range res.Jobs {
			if j.Finish <= j.Start || j.Waiting < 0 {
				t.Fatalf("%s: malformed record %+v", p.Name(), j)
			}
			// Waiting bound: W per queue (6h short / 24h long).
			w := 6 * simtime.Hour
			if j.Queue == workload.QueueLong {
				w = 24 * simtime.Hour
			}
			if j.Waiting > w {
				t.Fatalf("%s: job %d waited %v > %v", p.Name(), j.JobID, j.Waiting, w)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := carbon.RegionCAUS.Generate(24*40, 3)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(newRand(7), 200, simtime.Week)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.Reserved = 5
	cfg.WorkConserving = true
	cfg.SpotMaxLen = 2 * simtime.Hour
	cfg.EvictionRate = 0.1
	cfg.Seed = 42
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("job counts differ")
	}
	for i := range a.Jobs {
		if !reflect.DeepEqual(a.Jobs[i], b.Jobs[i]) {
			t.Fatalf("job %d diverged:\n%+v\n%+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func TestNormalizePlan(t *testing.T) {
	plan := []simtime.Interval{{Start: 60, End: 120}, {Start: 180, End: 240}}
	orig := slices.Clone(plan)
	// Every case reuses one buffer, as the scheduler's pooled records do.
	var buf []simtime.Interval
	// Truncation: 90 min job uses all of window 1 and half of window 2.
	got := policy.NormalizePlan(buf[:0], plan, 90*simtime.Minute)
	if len(got) != 2 || got[1] != (simtime.Interval{Start: 180, End: 210}) {
		t.Errorf("truncated plan = %v", got)
	}
	buf = got
	// Exact: unchanged.
	got = policy.NormalizePlan(buf[:0], plan, 2*simtime.Hour)
	if len(got) != 2 || got[0] != plan[0] || got[1] != plan[1] {
		t.Errorf("exact plan = %v", got)
	}
	// Extension: a 3h job runs 1h past the final window.
	got = policy.NormalizePlan(buf[:0], plan, 3*simtime.Hour)
	if len(got) != 2 || got[1] != (simtime.Interval{Start: 180, End: 300}) {
		t.Errorf("extended plan = %v", got)
	}
	// Sub-window job: only the first window, truncated.
	got = policy.NormalizePlan(buf[:0], plan, 10*simtime.Minute)
	if len(got) != 1 || got[0] != (simtime.Interval{Start: 60, End: 70}) {
		t.Errorf("tiny plan = %v", got)
	}
	if &got[0] != &buf[0] {
		t.Error("a normalization that fits the buffer reallocated it")
	}
	// Append semantics: what dst already holds stays in front.
	head := []simtime.Interval{{Start: 0, End: 5}}
	got = policy.NormalizePlan(head, plan, 3*simtime.Hour)
	if want := []simtime.Interval{{Start: 0, End: 5}, {Start: 60, End: 120}, {Start: 180, End: 300}}; !slices.Equal(got, want) {
		t.Errorf("appended plan = %v, want %v", got, want)
	}
	if !slices.Equal(plan, orig) {
		t.Errorf("input plan modified: %v", plan)
	}
}

func TestEstimateBasedSuspendResume(t *testing.T) {
	// Queue average 1h (one 1h job + the 3h job under test ⇒ avg 2h...
	// craft: many 30min jobs pull the short-queue average to ≈1h).
	vals := []float64{900, 50, 900, 900, 60, 900, 900, 900, 900, 900, 900, 900}
	tr := carbon.MustTrace("dips", vals)
	jobs := workload.MustTrace("mix", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(baseConfig(tr, policy.WaitAwhileEst{}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// The only job sets its own queue average (2h), so the plan is exact
	// here: hours 1 and 4 are the cheap slots.
	if j.Finish != simtime.Time(5*simtime.Hour) {
		t.Errorf("finish = %v, want hour 5", j.Finish)
	}
	wantCarbon := (50 + 60) * 0.01
	if math.Abs(j.Carbon-wantCarbon) > 1e-9 {
		t.Errorf("carbon = %v, want %v", j.Carbon, wantCarbon)
	}
}

func TestConfigValidation(t *testing.T) {
	tr := flatTrace(10, 100)
	jobs := oneJob(simtime.Hour, 1)
	cases := []Config{
		{Carbon: tr},              // no policy
		{Policy: policy.NoWait{}}, // no carbon
		{Policy: policy.NoWait{}, Carbon: tr, Reserved: -1},
		{Policy: policy.NoWait{}, Carbon: tr, EvictionRate: 1.0},
		{Policy: policy.NoWait{}, Carbon: tr, SpotMaxLen: -1},
		{Policy: policy.NoWait{}, Carbon: tr, Pricing: cloud.Pricing{OnDemandHourly: -1, ReservedFraction: 0.4, SpotFraction: 0.2}},
		{Policy: policy.NoWait{}, Carbon: tr, Mechanism: 3},
		// NaN fails every comparison, so each check must be written to fail it.
		{Policy: policy.NoWait{}, Carbon: tr, EvictionRate: math.NaN(), SpotMaxLen: simtime.Hour},
		{Policy: policy.NoWait{}, Carbon: tr, Pricing: cloud.Pricing{OnDemandHourly: math.NaN(), ReservedFraction: 0.4, SpotFraction: 0.2}},
		{Policy: policy.NoWait{}, Carbon: tr, Pricing: cloud.Pricing{OnDemandHourly: 1, ReservedFraction: math.NaN(), SpotFraction: 0.2}},
		{Policy: policy.NoWait{}, Carbon: tr, Pricing: cloud.Pricing{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: math.NaN()}},
		{Policy: policy.NoWait{}, Carbon: tr, Power: cloud.Power{KWPerCPU: math.NaN()}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, jobs); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWorkConservingRejectsPlans(t *testing.T) {
	tr := flatTrace(48, 100)
	cfg := baseConfig(tr, policy.WaitAwhile{})
	cfg.WorkConserving = true
	cfg.Reserved = 0 // no idle reserved unit, so the policy is consulted
	if _, err := Run(cfg, oneJob(3*simtime.Hour, 1)); err == nil {
		t.Error("suspend-resume under work conservation should fail")
	}
}

func TestLabelDerivation(t *testing.T) {
	tr := flatTrace(10, 100)
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Policy: policy.CarbonTime{}, Carbon: tr}, "Carbon-Time"},
		{Config{Policy: policy.CarbonTime{}, Carbon: tr, WorkConserving: true, Reserved: 5}, "RES-First-Carbon-Time"},
		{Config{Policy: policy.CarbonTime{}, Carbon: tr, SpotMaxLen: simtime.Hour}, "Spot-First-Carbon-Time"},
		{Config{Policy: policy.CarbonTime{}, Carbon: tr, SpotMaxLen: simtime.Hour, Reserved: 5}, "Spot-RES-Carbon-Time"},
		{Config{Policy: policy.AllWait{}, Carbon: tr, WorkConserving: true}, "AllWait-Threshold"},
		{Config{Policy: policy.NoWait{}, Carbon: tr, Label: "custom"}, "custom"},
	}
	for i, c := range cases {
		got := c.cfg.withDefaults().Label
		if got != c.want {
			t.Errorf("case %d: label = %q, want %q", i, got, c.want)
		}
	}
}

func TestMultiQueueLadder(t *testing.T) {
	tr := flatTrace(24*8, 100)
	cfg := baseConfig(tr, policy.AllWait{})
	cfg.Queues = workload.QueueLadder{
		{MaxLength: simtime.Hour, MaxWait: 2 * simtime.Hour},
		{MaxLength: 6 * simtime.Hour, MaxWait: 8 * simtime.Hour},
		{MaxLength: 0, MaxWait: 30 * simtime.Hour},
	}
	jobs := workload.MustTrace("ladder", []workload.Job{
		{Arrival: 0, Length: 30 * simtime.Minute, CPUs: 1},
		{Arrival: 0, Length: 3 * simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: 20 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// AllWait without reserved capacity: each job waits its queue's W.
	wantWaits := []simtime.Duration{2 * simtime.Hour, 8 * simtime.Hour, 30 * simtime.Hour}
	for i, j := range res.Jobs {
		if j.Queue != workload.Queue(i) {
			t.Errorf("job %d in queue %v", i, j.Queue)
		}
		if j.Waiting != wantWaits[i] {
			t.Errorf("job %d waited %v, want %v", i, j.Waiting, wantWaits[i])
		}
	}
}

func TestQueueLadderValidation(t *testing.T) {
	tr := flatTrace(10, 100)
	jobs := oneJob(simtime.Hour, 1)
	bad := []struct {
		queues workload.QueueLadder
		want   string // the error names the offending queue
	}{
		{workload.QueueLadder{{MaxLength: 0, MaxWait: simtime.Hour}, {MaxLength: 0, MaxWait: simtime.Hour}}, "queue short is unbounded"},
		{workload.QueueLadder{{MaxLength: 2 * simtime.Hour, MaxWait: simtime.Hour}, {MaxLength: simtime.Hour, MaxWait: simtime.Hour}}, "queue short"},
		{workload.QueueLadder{{MaxLength: 2 * simtime.Hour, MaxWait: simtime.Hour}, {MaxLength: 0, MaxWait: -1}}, "queue long has negative wait"},
		{workload.QueueLadder{{MaxLength: 0, MaxWait: -1}}, "queue short has negative wait"},
	}
	for i, c := range bad {
		cfg := baseConfig(tr, policy.NoWait{})
		cfg.Queues = c.queues
		if _, err := Run(cfg, jobs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want an error containing %q", i, err, c.want)
		}
	}
	// A zero wait is no waiting, not the default.
	cfg := baseConfig(tr, policy.AllWait{})
	cfg.Queues = workload.QueueLadder{{MaxLength: 0, MaxWait: 0}}
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Waiting != 0 {
		t.Errorf("zero-wait queue waited %v", res.Jobs[0].Waiting)
	}
}

func TestEmptyWorkload(t *testing.T) {
	tr := flatTrace(10, 100)
	res, err := Run(baseConfig(tr, policy.NoWait{}), workload.MustTrace("empty", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 0 || res.TotalCarbon() != 0 {
		t.Error("empty workload should produce empty result")
	}
	// With reserved capacity the upfront is still due.
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.Reserved = 3
	res, err = Run(cfg, workload.MustTrace("empty", nil))
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 * tr.Horizon().Hours() * 0.4
	if math.Abs(res.TotalCost()-want) > 1e-9 {
		t.Errorf("idle cluster cost = %v, want %v", res.TotalCost(), want)
	}
}
