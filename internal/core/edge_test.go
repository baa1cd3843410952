package core

// Edge-case coverage: boundary conditions the main tests don't hit.

import (
	"math"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func TestSimultaneousArrivalsDeterministicOrder(t *testing.T) {
	// Ten jobs arriving at the same instant on one reserved unit: the
	// work-conserving queue must drain them in ID order (FIFO at equal
	// planned starts).
	tr := flatTrace(24*4, 100)
	cfg := baseConfig(tr, policy.AllWait{})
	cfg.Reserved = 1
	cfg.WorkConserving = true
	var specs []workload.Job
	for i := 0; i < 10; i++ {
		specs = append(specs, workload.Job{Arrival: 0, Length: 30 * simtime.Minute, CPUs: 1})
	}
	res, err := Run(cfg, workload.MustTrace("burst", specs))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Jobs {
		want := simtime.Time(simtime.Duration(i) * 30 * simtime.Minute)
		if j.Start != want {
			t.Errorf("job %d started at %v, want %v", i, j.Start, want)
		}
		if i > 0 && j.CPUHours[cloud.Reserved] != 0.5 {
			t.Errorf("job %d should run fully reserved: %v", i, j.CPUHours)
		}
	}
}

func TestJobAtCarbonHorizonEdge(t *testing.T) {
	// A job arriving in the final trace hour schedules into the clamped
	// region; accounting must use the final slot's intensity.
	tr := flatTrace(10, 100) // 10 hours of CI
	cfg := baseConfig(tr, policy.LowestWindow{})
	jobs := workload.MustTrace("edge", []workload.Job{
		{Arrival: simtime.Time(9*simtime.Hour + 30*simtime.Minute), Length: 4 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// Flat CI: 4 h × 100 g/kWh × 0.01 kW = 4 g wherever it runs.
	if math.Abs(j.Carbon-4) > 1e-9 {
		t.Errorf("carbon = %v", j.Carbon)
	}
}

func TestMinimumLengthJob(t *testing.T) {
	tr := flatTrace(24, 100)
	res, err := Run(baseConfig(tr, policy.CarbonTime{}), oneJob(simtime.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Finish.Sub(j.Start) != simtime.Minute {
		t.Errorf("run length = %v", j.Finish.Sub(j.Start))
	}
}

func TestManyCPUSpotGang(t *testing.T) {
	// A 40-CPU spot job evicted once: all 40 units' waste is booked and
	// the restart claims reserved units first.
	tr := flatTrace(100, 100)
	cfg := baseConfig(tr, policy.NoWait{})
	cfg.SpotMaxLen = 10 * simtime.Hour
	cfg.EvictionRate = 0.9
	cfg.Reserved = 15
	cfg.Seed = 4
	res, err := Run(cfg, oneJob(4*simtime.Hour, 40))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Evictions != 1 {
		t.Skip("seed produced no eviction") // extremely unlikely at 0.9
	}
	if j.CPUHours[cloud.Reserved] != 15*4 {
		t.Errorf("reserved hours = %v, want 60", j.CPUHours[cloud.Reserved])
	}
	if j.CPUHours[cloud.OnDemand] != 25*4 {
		t.Errorf("on-demand hours = %v, want 100", j.CPUHours[cloud.OnDemand])
	}
	if j.WastedCPUHours < 40 { // at least one wasted hour across 40 units
		t.Errorf("wasted = %v", j.WastedCPUHours)
	}
}

func TestSuspendResumeWithReservedPool(t *testing.T) {
	// Two overlapping suspend-resume jobs share one reserved unit: each
	// plan interval claims it when free, overflowing to on-demand.
	vals := []float64{900, 100, 900, 100, 900, 100, 900, 900, 900, 900, 900, 900}
	tr := carbon.MustTrace("comb", vals)
	cfg := baseConfig(tr, policy.WaitAwhile{})
	cfg.Reserved = 1
	jobs := workload.MustTrace("two", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Both target the same cheap slots (hours 1, 3): one unit reserved,
	// one on-demand per slot.
	var resH, odH float64
	for _, j := range res.Jobs {
		resH += j.CPUHours[cloud.Reserved]
		odH += j.CPUHours[cloud.OnDemand]
	}
	if resH != 2 || odH != 2 {
		t.Errorf("reserved/od hours = %v/%v, want 2/2", resH, odH)
	}
}

func TestZeroWaitEverywhereDegeneratesToNoWait(t *testing.T) {
	tr := carbon.RegionSAAU.Generate(24*10, 5)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(newRand(6), 100, simtime.Week)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.Queues = workload.PaperQueues(0, 0)
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(tr, policy.NoWait{}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalCarbon()-b.TotalCarbon()) > 1e-9 {
		t.Errorf("zero-wait Carbon-Time %v != NoWait %v", a.TotalCarbon(), b.TotalCarbon())
	}
	if a.MeanWaiting() != 0 {
		t.Errorf("zero-wait waiting = %v", a.MeanWaiting())
	}
}
