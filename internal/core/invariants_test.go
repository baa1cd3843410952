package core

// Cross-policy invariant tests: properties that must hold for any
// workload/carbon combination, checked over seeded random instances.

import (
	"math"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func randomInstance(seed int64) (*carbon.Trace, *workload.Trace) {
	tr := carbon.RegionSAAU.Generate(24*30, seed)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(newRand(seed+100), 150, simtime.Week)
	return tr, jobs
}

// WaitAwhile knows the exact length and may suspend: its feasible
// schedules are a superset of any uninterruptible policy with the same
// window, so its total carbon can never exceed Lowest-Slot's.
func TestWaitAwhileCarbonDominates(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr, jobs := randomInstance(seed)
		wa, err := Run(baseConfig(tr, policy.WaitAwhile{}), jobs)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := Run(baseConfig(tr, policy.LowestSlot{}), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if wa.TotalCarbon() > ls.TotalCarbon()+1e-6 {
			t.Errorf("seed %d: WaitAwhile %v > LowestSlot %v", seed, wa.TotalCarbon(), ls.TotalCarbon())
		}
	}
}

// A larger waiting window can only help WaitAwhile's carbon: the feasible
// slot set grows monotonically.
func TestWiderWindowNeverHurtsWaitAwhile(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr, jobs := randomInstance(seed)
		prev := math.Inf(1)
		for _, w := range []simtime.Duration{0, 6 * simtime.Hour, 24 * simtime.Hour, 48 * simtime.Hour} {
			cfg := baseConfig(tr, policy.WaitAwhile{})
			cfg.Queues = workload.PaperQueues(w, w)
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if c := res.TotalCarbon(); c > prev+1e-6 {
				t.Errorf("seed %d: carbon rose to %v at window %v", seed, c, w)
			} else {
				prev = c
			}
		}
	}
}

// Work conservation can only reduce waiting versus the same policy
// without it (jobs start no later, never earlier than planned).
func TestWorkConservationReducesWaiting(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr, jobs := randomInstance(seed)
		mk := func(wc bool) *metrics.Result {
			cfg := baseConfig(tr, policy.CarbonTime{})
			cfg.Reserved = 10
			cfg.WorkConserving = wc
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		with, without := mk(true), mk(false)
		if with.MeanWaiting() > without.MeanWaiting() {
			t.Errorf("seed %d: WC waiting %v > plain %v", seed, with.MeanWaiting(), without.MeanWaiting())
		}
	}
}

// Accounting identities: billed CPU-hours equal executed CPU-hours
// (job volume + eviction waste), and carbon is additive and non-negative.
func TestAccountingIdentities(t *testing.T) {
	tr, jobs := randomInstance(7)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.Reserved = 8
	cfg.WorkConserving = true
	cfg.SpotMaxLen = 2 * simtime.Hour
	cfg.EvictionRate = 0.15
	cfg.Seed = 3
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var volume, wasted float64
	for _, j := range res.Jobs {
		volume += float64(j.CPUs) * j.Length.Hours()
		wasted += j.WastedCPUHours
		if j.Carbon < 0 || j.UsageCost < 0 {
			t.Fatalf("negative accounting on job %d", j.JobID)
		}
		var byOpt float64
		for _, h := range j.CPUHours {
			byOpt += h
		}
		want := float64(j.CPUs)*j.Length.Hours() + j.WastedCPUHours
		if math.Abs(byOpt-want) > 1e-6 {
			t.Fatalf("job %d: billed %v CPUh, want %v", j.JobID, byOpt, want)
		}
	}
	total := res.CPUHoursByOption()
	sum := total[cloud.OnDemand] + total[cloud.Reserved] + total[cloud.Spot]
	if math.Abs(sum-(volume+wasted)) > 1e-6 {
		t.Errorf("cluster billed %v CPUh, want %v", sum, volume+wasted)
	}
	// Cost identity: total = upfront + usage; usage = od·rate + spot·rate.
	wantUsage := total[cloud.OnDemand]*cfg.Pricing.HourlyRate(cloud.OnDemand) +
		total[cloud.Spot]*cfg.Pricing.HourlyRate(cloud.Spot)
	if math.Abs(res.UsageCost()-wantUsage) > 1e-6 {
		t.Errorf("usage cost %v, want %v", res.UsageCost(), wantUsage)
	}
}

// Reserved capacity never exceeds its pool: total reserved CPU-hours over
// any run must be at most capacity × horizon.
func TestReservedNeverOverbooked(t *testing.T) {
	tr, jobs := randomInstance(9)
	for _, r := range []int{1, 5, 20} {
		cfg := baseConfig(tr, policy.AllWait{})
		cfg.Reserved = r
		cfg.WorkConserving = true
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if used := res.CPUHoursByOption()[cloud.Reserved]; used > float64(r)*res.Horizon.Hours()+1e-6 {
			t.Errorf("R=%d: used %v reserved CPUh over %v capacity-hours", r, used, float64(r)*res.Horizon.Hours())
		}
		if res.ReservedUtilization() > 1+1e-9 {
			t.Errorf("R=%d: utilization %v > 1", r, res.ReservedUtilization())
		}
	}
}

// The estimate override plumbing reaches the policies: a wildly wrong
// estimate changes Lowest-Window's schedule.
func TestAvgLengthOverride(t *testing.T) {
	tr, jobs := randomInstance(11)
	run := func(override map[workload.Queue]simtime.Duration) *metrics.Result {
		cfg := baseConfig(tr, policy.LowestWindow{})
		cfg.AvgLengthOverride = override
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	normal := run(nil)
	skewed := run(map[workload.Queue]simtime.Duration{
		workload.QueueShort: 20 * simtime.Hour,
		workload.QueueLong:  20 * simtime.Hour,
	})
	same := true
	for i := range normal.Jobs {
		if normal.Jobs[i].Start != skewed.Jobs[i].Start {
			same = false
			break
		}
	}
	if same {
		t.Error("20h estimate override should change some start times")
	}
}
