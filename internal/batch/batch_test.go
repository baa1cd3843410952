package batch

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/policy/policytest"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

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

func protoConfig(p policy.Policy, tr *carbon.Trace) Config {
	return Config{
		Policy:  p,
		Carbon:  tr,
		Pricing: testPricing,
		Power:   testPower,
		Seed:    1,
	}
}

func TestPrototypeSingleJob(t *testing.T) {
	tr := flatTrace(48, 100)
	jobs := workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(protoConfig(policy.NoWait{}, tr), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("%d jobs", len(res.Jobs))
	}
	j := res.Jobs[0]
	// No reserved fleet: the job waits out one boot delay (3 min).
	if j.Start != simtime.Time(3*simtime.Minute) {
		t.Errorf("start = %v, want 3m (boot delay)", j.Start)
	}
	if j.Waiting() != 3*simtime.Minute {
		t.Errorf("waiting = %v", j.Waiting())
	}
	if res.NodesLaunched != 1 {
		t.Errorf("nodes launched = %d", res.NodesLaunched)
	}
	// Billing: boot 3 min + run 120 min + idle 10 min = 133 min at $1/h.
	if math.Abs(res.Cost-133.0/60) > 1e-9 {
		t.Errorf("cost = %v, want %v", res.Cost, 133.0/60)
	}
	// Carbon likewise covers the whole lifetime: the prototype's
	// overhead relative to the simulator's ideal 2 h accounting.
	want := 100 * 0.01 * 133.0 / 60
	if math.Abs(res.CarbonG-want) > 1e-9 {
		t.Errorf("carbon = %v, want %v", res.CarbonG, want)
	}
}

func TestPrototypeReservedNoBootNoUsageCost(t *testing.T) {
	tr := flatTrace(48, 100)
	cfg := protoConfig(policy.NoWait{}, tr)
	cfg.ReservedNodes = 2
	jobs := workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Start != 0 || j.Waiting() != 0 {
		t.Errorf("reserved job should start instantly: %+v", j)
	}
	// Cost is the upfront only: 2 × 48 h × $0.40.
	if math.Abs(res.Cost-2*48*0.4) > 1e-9 {
		t.Errorf("cost = %v", res.Cost)
	}
	// Reserved carbon: busy hour only (idle reserved powered off).
	if math.Abs(res.CarbonG-100*0.01*1) > 1e-9 {
		t.Errorf("carbon = %v", res.CarbonG)
	}
	if res.NodesLaunched != 0 {
		t.Errorf("nodes launched = %d", res.NodesLaunched)
	}
}

func TestPrototypeGangAllocation(t *testing.T) {
	tr := flatTrace(48, 100)
	cfg := protoConfig(policy.NoWait{}, tr)
	cfg.ReservedNodes = 1
	jobs := workload.MustTrace("gang", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 3},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// One reserved node held immediately, two launched: start at boot end.
	if j.Start != simtime.Time(3*simtime.Minute) {
		t.Errorf("gang start = %v", j.Start)
	}
	if res.NodesLaunched != 2 {
		t.Errorf("nodes launched = %d, want 2", res.NodesLaunched)
	}
}

func TestPrototypeNodeReuse(t *testing.T) {
	// Two sequential jobs 5 min apart reuse one elastic node: only one
	// launch, no second boot delay.
	tr := flatTrace(48, 100)
	jobs := workload.MustTrace("two", []workload.Job{
		{Arrival: 0, Length: 30 * simtime.Minute, CPUs: 1},
		{Arrival: simtime.Time(35 * simtime.Minute), Length: 30 * simtime.Minute, CPUs: 1},
	})
	res, err := Run(protoConfig(policy.NoWait{}, tr), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesLaunched != 1 {
		t.Fatalf("nodes launched = %d, want 1 (reuse)", res.NodesLaunched)
	}
	b := res.Jobs[1]
	if b.Start != simtime.Time(35*simtime.Minute) || b.Waiting() != 0 {
		t.Errorf("second job should start instantly on the warm node: %+v", b)
	}
}

func TestPrototypeCarbonAwareDelay(t *testing.T) {
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = 500
	}
	vals[4] = 50
	tr := carbon.MustTrace("dip", vals)
	jobs := workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
	})
	res, err := Run(protoConfig(policy.LowestWindow{}, tr), jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// Released at hour 4, plus boot delay.
	if j.Start != simtime.Time(4*simtime.Hour+3*simtime.Minute) {
		t.Errorf("start = %v", j.Start)
	}
}

func TestPrototypeSpotInterruptRequeues(t *testing.T) {
	tr := flatTrace(100, 100)
	cfg := protoConfig(policy.NoWait{}, tr)
	cfg.SpotMaxLen = 10 * simtime.Hour
	cfg.EvictionRate = 0.95
	cfg.Seed = 2
	jobs := workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: 5 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Attempts < 2 {
		t.Fatalf("attempts = %d, want interruption + restart", j.Attempts)
	}
	if j.State != Completed {
		t.Fatalf("state = %v", j.State)
	}
	if res.TotalEvictions() != j.Attempts-1 {
		t.Errorf("evictions = %d", res.TotalEvictions())
	}
	// The restart runs on on-demand: waiting includes the lost runtime.
	if j.Waiting() <= 0 {
		t.Errorf("waiting = %v", j.Waiting())
	}
}

func TestPrototypeDeterministic(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*12, 3)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(5)), 120, simtime.Week)
	cfg := protoConfig(policy.CarbonTime{}, tr)
	cfg.ReservedNodes = 5
	cfg.SpotMaxLen = 2 * simtime.Hour
	cfg.EvictionRate = 0.1
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.CarbonG != b.CarbonG || a.MeanWaiting() != b.MeanWaiting() {
		t.Fatal("prototype runs must be deterministic")
	}
}

func TestPrototypeAllJobsComplete(t *testing.T) {
	tr := carbon.RegionCAUS.Generate(24*12, 4)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(6)), 200, simtime.Week)
	for _, p := range []policy.Policy{policy.NoWait{}, policy.LowestSlot{}, policy.CarbonTime{}} {
		cfg := protoConfig(p, tr)
		cfg.ReservedNodes = 8
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Jobs) != jobs.Len() {
			t.Fatalf("%s: %d/%d jobs", p.Name(), len(res.Jobs), jobs.Len())
		}
		for _, j := range res.Jobs {
			if j.State != Completed || j.End <= j.Start {
				t.Fatalf("%s: bad record %+v", p.Name(), j)
			}
		}
	}
}

func TestPrototypeAllWaitWaitsForReserved(t *testing.T) {
	// Job A holds the single reserved node 2 h; B (short queue, W=6h)
	// arrives at 1 h and must start at 2 h on the freed reserved node
	// rather than launching on-demand.
	tr := flatTrace(48, 100)
	cfg := protoConfig(policy.AllWait{}, tr)
	cfg.ReservedNodes = 1
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
		t.Errorf("B started at %v, want 2h (reserved freed)", b.Start)
	}
	if res.NodesLaunched != 0 {
		t.Errorf("no on-demand node should launch, got %d", res.NodesLaunched)
	}
}

func TestPrototypeAllWaitFallsBackAtDeadline(t *testing.T) {
	// The reserved node stays busy past B's 6 h short-queue deadline: B
	// must fall back to a launched on-demand node at the deadline.
	tr := flatTrace(48, 100)
	cfg := protoConfig(policy.AllWait{}, tr)
	cfg.ReservedNodes = 1
	jobs := workload.MustTrace("two", []workload.Job{
		{Arrival: 0, Length: 20 * simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Jobs[1]
	want := simtime.Time(6*simtime.Hour + 3*simtime.Minute) // deadline + boot
	if b.Start != want {
		t.Errorf("B started at %v, want %v", b.Start, want)
	}
	if res.NodesLaunched != 1 {
		t.Errorf("nodes launched = %d, want 1", res.NodesLaunched)
	}
}

func TestPrototypeSuspendResumeSegments(t *testing.T) {
	// Two cheap slots at hours 2 and 5: WaitAwhile splits a 2 h job into
	// two segments; the prototype runs them as separate allocations with
	// a boot before each (no reserved fleet).
	vals := []float64{900, 900, 100, 900, 900, 100, 900, 900, 900, 900, 900, 900}
	tr := carbon.MustTrace("dips", vals)
	jobs := workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(protoConfig(policy.WaitAwhile{}, tr), jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.State != Completed {
		t.Fatalf("state = %v", j.State)
	}
	// First segment boots at hour 2 (+3 min), second at hour 5 (+3 min),
	// ending at 6h03m.
	wantEnd := simtime.Time(6*simtime.Hour + 3*simtime.Minute)
	if j.End != wantEnd {
		t.Errorf("end = %v, want %v", j.End, wantEnd)
	}
	if j.Start != simtime.Time(2*simtime.Hour+3*simtime.Minute) {
		t.Errorf("start = %v", j.Start)
	}
	// Two plan segments are two executions, not a spot interruption.
	if j.Attempts != 2 || j.Interruptions != 0 || res.TotalEvictions() != 0 {
		t.Errorf("attempts = %d, interruptions = %d, evictions = %d; want 2, 0, 0 with spot off",
			j.Attempts, j.Interruptions, res.TotalEvictions())
	}
}

func TestPrototypeSuspendResumeOnReserved(t *testing.T) {
	// With a reserved node, segments claim it instantly (no boots), so
	// the prototype reproduces the simulator's plan timing exactly.
	vals := []float64{900, 900, 100, 900, 900, 100, 900, 900, 900, 900, 900, 900}
	tr := carbon.MustTrace("dips", vals)
	cfg := protoConfig(policy.WaitAwhile{}, tr)
	cfg.ReservedNodes = 1
	jobs := workload.MustTrace("one", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.End != simtime.Time(6*simtime.Hour) {
		t.Errorf("end = %v, want 6h", j.End)
	}
	// Waiting = completion − length = 4 h of suspension.
	if j.Waiting() != 4*simtime.Hour {
		t.Errorf("waiting = %v", j.Waiting())
	}
	// Reserved busy carbon: two cheap hours at CI 100 × 0.01 kW = 2 g.
	if math.Abs(j.ReservedBusyCarbon-2) > 1e-9 {
		t.Errorf("reserved carbon = %v", j.ReservedBusyCarbon)
	}
}

func TestPrototypeEcovisorRuns(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*10, 9)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(10)), 120, simtime.Week)
	cfg := protoConfig(policy.Ecovisor{}, tr)
	cfg.ReservedNodes = 10
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != jobs.Len() {
		t.Fatalf("%d/%d jobs", len(res.Jobs), jobs.Len())
	}
	for _, j := range res.Jobs {
		if j.State != Completed {
			t.Fatalf("job %d state %v", j.Spec.ID, j.State)
		}
	}
}

func TestPrototypeValidation(t *testing.T) {
	tr := flatTrace(10, 100)
	jobs := workload.MustTrace("one", []workload.Job{{Arrival: 0, Length: 60, CPUs: 1}})
	if _, err := Run(Config{Carbon: tr}, jobs); err == nil {
		t.Error("missing policy should error")
	}
	if _, err := Run(Config{Policy: policy.NoWait{}}, jobs); err == nil {
		t.Error("missing carbon should error")
	}
	// The queue ladder goes through the validation core.Run applies.
	cfg := protoConfig(policy.NoWait{}, tr)
	cfg.Queues = workload.PaperQueues(6*simtime.Hour, -simtime.Hour)
	if _, err := Run(cfg, jobs); err == nil || !strings.Contains(err.Error(), "queue long has negative wait") {
		t.Errorf("negative wait: err = %v, want one naming the long queue", err)
	}
}

// A zero wait means no waiting: plan policies start at once instead of
// failing plan validation, and the wait-bounded AllWait never holds a job.
func TestPrototypeZeroWaits(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*10, 9)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(10)), 60, simtime.Week)
	for _, p := range []policy.Policy{policy.Ecovisor{}, policy.WaitAwhile{}, policy.CarbonTime{}, policy.AllWait{}} {
		for _, queues := range []workload.QueueLadder{workload.PaperQueues(0, 24*simtime.Hour), workload.PaperQueues(0, 0)} {
			cfg := protoConfig(p, tr)
			cfg.ReservedNodes = 3
			cfg.Queues = queues
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Errorf("%s %v: %v", p.Name(), queues, err)
				continue
			}
			for _, j := range res.Jobs {
				if j.State != Completed {
					t.Fatalf("%s %v: job %d state %v", p.Name(), queues, j.Spec.ID, j.State)
				}
			}
		}
	}
}

func TestJobStateString(t *testing.T) {
	names := map[JobState]string{
		Pending: "PENDING", Running: "RUNNING", Completed: "COMPLETED", Requeued: "REQUEUED",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%v != %s", s, want)
		}
	}
	if JobState(9).String() != "STATE(9)" {
		t.Error("unknown state")
	}
}

// TestBorrowedPlansNotRetained holds the frontend to the borrowed-plan
// contract of policy.Decision: its plan segments outlive the Decide that
// returned them, so every suspend-resume policy wrapped in
// policytest.Clobbering (which overwrites each plan it returned once its
// Context decides again) must run the prototype exactly as the bare
// policy does, spot segments included.
func TestBorrowedPlansNotRetained(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*12, 3)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(5)), 150, simtime.Week)
	summary := func(res *Result) string {
		var b strings.Builder
		fmt.Fprintf(&b, "cost %v carbon %v launched %v\n", res.Cost, res.CarbonG, res.NodesLaunched)
		for _, j := range res.Jobs {
			fmt.Fprintf(&b, "%+v %v %v %v %v %v %v %v\n", j.Spec, j.State, j.Submit, j.Start, j.End, j.Attempts, j.Interruptions, j.ReservedBusyCarbon)
		}
		return b.String()
	}
	for _, p := range []policy.Policy{policy.WaitAwhile{}, policy.WaitAwhileEst{}, policy.Ecovisor{}} {
		cfg := protoConfig(p, tr)
		cfg.ReservedNodes = 6
		cfg.SpotMaxLen = 2 * simtime.Hour
		cfg.EvictionRate = 0.1
		want, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		segmented := false
		for _, j := range want.Jobs {
			segmented = segmented || j.Attempts-j.Interruptions >= 2
		}
		if !segmented {
			t.Fatalf("%s: no job ran in more than one plan segment", p.Name())
		}
		cfg.Policy = policytest.Clobber(p)
		got, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("%s through Clobbering: %v", p.Name(), err)
		}
		if a, b := summary(got), summary(want); a != b {
			t.Errorf("%s: prototype runs differently through Clobbering:\n got  %.300s\n want %.300s", p.Name(), a, b)
		}
	}
}
