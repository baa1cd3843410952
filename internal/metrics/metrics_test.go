package metrics

import (
	"math"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// sampleJobs returns the records behind sampleResult.
func sampleJobs() []JobResult {
	return []JobResult{
		{
			JobID: 0, Queue: workload.QueueShort, CPUs: 1,
			Length: simtime.Hour, Arrival: 0, Start: 0,
			Finish: simtime.Time(simtime.Hour),
			Carbon: 10, BaselineCarbon: 10, UsageCost: 0,
			CPUHours: [3]float64{0, 1, 0}, // reserved hour
		},
		{
			JobID: 1, Queue: workload.QueueLong, CPUs: 2,
			Length: 2 * simtime.Hour, Arrival: 0,
			Start:   simtime.Time(simtime.Hour),
			Finish:  simtime.Time(3 * simtime.Hour),
			Waiting: simtime.Hour,
			Carbon:  20, BaselineCarbon: 50, UsageCost: 4,
			CPUHours: [3]float64{4, 0, 0}, // on-demand hours
		},
	}
}

// sampleResult is a two-job retained run: its records, and the
// accumulator they were folded into.
func sampleResult(jobs ...JobResult) *Result {
	if jobs == nil {
		jobs = sampleJobs()
	}
	return accumulated(&Result{
		Label:    "test",
		Region:   "XX",
		Workload: "wl",
		Reserved: 2,
		Horizon:  100 * simtime.Hour,
		Pricing:  cloud.Pricing{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 0.2},
	}, jobs...)
}

func TestResultTotals(t *testing.T) {
	r := sampleResult()
	if r.TotalCarbon() != 30 {
		t.Errorf("TotalCarbon = %v", r.TotalCarbon())
	}
	if r.TotalCarbonKg() != 0.03 {
		t.Errorf("TotalCarbonKg = %v", r.TotalCarbonKg())
	}
	if r.BaselineCarbon() != 60 {
		t.Errorf("BaselineCarbon = %v", r.BaselineCarbon())
	}
	if got := r.CarbonSavingsFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("savings = %v", got)
	}
	// Upfront: 2 × 100 h × 0.4 = 80; usage 4.
	if r.ReservedUpfront() != 80 {
		t.Errorf("upfront = %v", r.ReservedUpfront())
	}
	if r.UsageCost() != 4 {
		t.Errorf("usage = %v", r.UsageCost())
	}
	if r.TotalCost() != 84 {
		t.Errorf("total = %v", r.TotalCost())
	}
	if r.MeanWaiting() != 30*simtime.Minute {
		t.Errorf("mean waiting = %v", r.MeanWaiting())
	}
	if r.MeanCompletion() != 2*simtime.Hour {
		t.Errorf("mean completion = %v", r.MeanCompletion())
	}
	if r.TotalEvictions() != 0 {
		t.Errorf("evictions = %d", r.TotalEvictions())
	}
	byOpt := r.CPUHoursByOption()
	if byOpt[cloud.Reserved] != 1 || byOpt[cloud.OnDemand] != 4 {
		t.Errorf("byOption = %v", byOpt)
	}
	// Utilization: 1 used / 200 paid reserved hours.
	if got := r.ReservedUtilization(); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("utilization = %v", got)
	}
	if !strings.Contains(r.String(), "test") {
		t.Error("String should include the label")
	}
}

func TestWaitingPercentile(t *testing.T) {
	r := waitingResult(0, simtime.Hour, 2*simtime.Hour, 3*simtime.Hour, 4*simtime.Hour)
	if got := r.WaitingPercentile(50); got != 2*simtime.Hour {
		t.Errorf("p50 = %v", got)
	}
	if got := r.WaitingPercentile(100); got != 4*simtime.Hour {
		t.Errorf("p100 = %v", got)
	}
	if empty := waitingResult(); empty.WaitingPercentile(95) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestEmptyResult(t *testing.T) {
	r := accumulated(&Result{Pricing: cloud.DefaultPricing()})
	if r.TotalCarbon() != 0 || r.MeanWaiting() != 0 || r.MeanCompletion() != 0 {
		t.Error("empty result should be zeros")
	}
	if r.CarbonSavingsFraction() != 0 {
		t.Error("zero-baseline savings should be 0")
	}
	if r.ReservedUtilization() != 0 {
		t.Error("zero-reserved utilization should be 0")
	}
}

func TestJobResultHelpers(t *testing.T) {
	j := JobResult{
		Arrival: 10, Finish: 130, Length: simtime.Hour,
		Carbon: 5, BaselineCarbon: 8,
	}
	if j.Completion() != 2*simtime.Hour {
		t.Errorf("Completion = %v", j.Completion())
	}
	if j.CarbonSaving() != 3 {
		t.Errorf("CarbonSaving = %v", j.CarbonSaving())
	}
}

func TestCompareTo(t *testing.T) {
	base := sampleResult()
	jobs := sampleJobs()
	jobs[1].Carbon = 5 // total 15 vs base 30
	rel := sampleResult(jobs...).CompareTo(base)
	if math.Abs(rel.Carbon-0.5) > 1e-12 {
		t.Errorf("rel carbon = %v", rel.Carbon)
	}
	if math.Abs(rel.Cost-1) > 1e-12 {
		t.Errorf("rel cost = %v", rel.Cost)
	}
	if math.Abs(rel.Waiting-1) > 1e-12 {
		t.Errorf("rel waiting = %v", rel.Waiting)
	}
	if math.Abs(rel.Completion-1) > 1e-12 {
		t.Errorf("rel completion = %v", rel.Completion)
	}
}

func TestCompareToZeroWaitBaseline(t *testing.T) {
	baseJobs, jobs := sampleJobs(), sampleJobs()
	baseJobs[1].Waiting = 0
	jobs[1].Waiting = 4 * simtime.Hour
	rel := sampleResult(jobs...).CompareTo(sampleResult(baseJobs...))
	// Baseline never waits: report raw hours instead of a ratio.
	if math.Abs(rel.Waiting-2) > 1e-12 { // mean of 0 and 4 h
		t.Errorf("rel waiting = %v", rel.Waiting)
	}
}

func TestUsageSeries(t *testing.T) {
	r := accumulated(&Result{},
		JobResult{JobID: 0, Segments: []Segment{
			{Interval: simtime.Interval{Start: 0, End: 60}, Reserved: 2},
			{Interval: simtime.Interval{Start: 60, End: 120}, OnDemand: 1, Spot: 1},
		}},
		JobResult{JobID: 1, Segments: []Segment{
			{Interval: simtime.Interval{Start: 30, End: 90}, OnDemand: 3},
		}},
	)
	s := r.UsageSeries(2 * simtime.Hour)
	if s[cloud.Reserved][0] != 2 || s[cloud.Reserved][1] != 0 {
		t.Errorf("reserved series = %v", s[cloud.Reserved])
	}
	// On-demand: job2 runs 30-90 (half of hour 0, half of hour 1) at 3
	// CPUs; job1 adds 1 CPU in hour 1.
	if s[cloud.OnDemand][0] != 1.5 || s[cloud.OnDemand][1] != 2.5 {
		t.Errorf("on-demand series = %v", s[cloud.OnDemand])
	}
	if s[cloud.Spot][1] != 1 {
		t.Errorf("spot series = %v", s[cloud.Spot])
	}
	// Hourly mean totals: hour 0 = 2 reserved + 1.5 od = 3.5;
	// hour 1 = 2.5 od + 1 spot = 3.5.
	if got := r.PeakDemand(2 * simtime.Hour); got != 3.5 {
		t.Errorf("peak = %v", got)
	}
	if out := r.UsageSeries(0); out[0] != nil {
		t.Error("zero horizon should be empty")
	}
}

func TestSavingsByLengthCDF(t *testing.T) {
	r := accumulated(&Result{},
		JobResult{JobID: 0, Length: 60, Carbon: 5, BaselineCarbon: 10},   // saving 5 at 1 h
		JobResult{JobID: 1, Length: 600, Carbon: 10, BaselineCarbon: 25}, // saving 15 at 10 h
		JobResult{JobID: 2, Length: 60, Carbon: 10, BaselineCarbon: 5},   // negative saving, skipped
	)
	cdf := r.SavingsByLengthCDF()
	if cdf.Total() != 20 {
		t.Errorf("total savings = %v", cdf.Total())
	}
	if got := cdf.At(60); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("CDF(1h) = %v", got)
	}
	if got := cdf.At(600); math.Abs(got-1) > 1e-12 {
		t.Errorf("CDF(10h) = %v", got)
	}
}
