// Package metrics defines the per-job and cluster-level accounting records
// the GAIA simulator produces, and the aggregations the paper's evaluation
// reports: total/normalized carbon, total cost (reserved upfront plus
// usage), waiting and completion times, and savings breakdowns.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
	"github.com/carbonsched/gaia/internal/workload"
)

// JobResult is the accounting record of one executed job.
type JobResult struct {
	JobID   int
	Queue   workload.Queue
	User    string
	CPUs    int
	Length  simtime.Duration
	Arrival simtime.Time
	// Start is the first instant the job executed (including execution
	// later lost to eviction).
	Start simtime.Time
	// Finish is the completion instant.
	Finish simtime.Time
	// Waiting is the job's total non-running delay:
	// Finish − Arrival − Length. For uninterruptible, eviction-free
	// execution this equals Start − Arrival; for suspend-resume jobs it
	// includes pauses, and for evicted spot jobs the lost runtime.
	Waiting simtime.Duration
	// Carbon is the job's total emissions in grams CO2eq, including any
	// emissions from execution lost to eviction.
	Carbon float64
	// BaselineCarbon is what the job would have emitted had it started
	// at arrival (the NoWait counterfactual), used for savings analyses.
	BaselineCarbon float64
	// UsageCost is the pay-as-you-go dollars attributed to the job
	// (on-demand plus spot, including wasted spot time). Reserved
	// capacity is pre-paid at cluster level and contributes nothing here.
	UsageCost float64
	// CPUHours breaks billed execution down by purchase option, indexed
	// by cloud.Option.
	CPUHours [3]float64
	// Evictions counts spot revocations suffered.
	Evictions int
	// WastedCPUHours/WastedCarbon/WastedCost quantify execution lost to
	// evictions (already included in the totals above).
	WastedCPUHours float64
	WastedCarbon   float64
	WastedCost     float64
	// Segments records the job's execution intervals with their
	// placement split — the raw material of allocation timelines (the
	// artifact's "runtime file" and Figure 2a's demand curves).
	Segments []Segment
}

// Segment is one contiguous execution interval of a job on a fixed
// placement.
type Segment struct {
	Interval simtime.Interval
	// Reserved/OnDemand/Spot are the concurrently held CPU units per
	// purchase option.
	Reserved, OnDemand, Spot int
	// Wasted marks execution later lost to a spot eviction.
	Wasted bool
}

// Completion returns the job's completion time (Finish − Arrival).
func (r JobResult) Completion() simtime.Duration { return r.Finish.Sub(r.Arrival) }

// CarbonSaving returns the emissions avoided versus running at arrival
// (negative when the schedule emitted more).
func (r JobResult) CarbonSaving() float64 { return r.BaselineCarbon - r.Carbon }

// Result is the outcome of one simulated cluster run.
type Result struct {
	// Label identifies the configuration (e.g. "RES-First-Carbon-Time").
	Label string
	// Region is the carbon trace's region code.
	Region string
	// Workload is the workload trace name.
	Workload string
	// Reserved is the reserved capacity in CPU units.
	Reserved int
	// Horizon is the accounting horizon (reserved capacity is paid for
	// all of it).
	Horizon simtime.Duration
	// Pricing is the price book used.
	Pricing cloud.Pricing
	// Jobs holds the retained per-job records, filled only under core's
	// RetainJobs flag for the consumers that read records (WriteDetailsCSV,
	// the accounting DB, record-level tests); in the default streaming
	// mode it is empty. No aggregate reads it: every one answers from the
	// accumulator.
	Jobs []JobResult

	// agg is the run's streaming accumulator; every aggregate reads it.
	agg *Accumulator
	// memo caches derived queries so table rendering stops rescanning.
	memo resultMemo
}

// resultMemo holds the aggregates derived from the accumulator's columns,
// computed on first query. Guarded by mu so concurrent readers of a shared
// Result are safe.
type resultMemo struct {
	mu      sync.Mutex
	scalars bool
	// Fused single-pass totals over the columns, summed in job-ID order.
	totalCarbon, baselineCarbon, usageCost float64
	totalWaitingHours                      float64
	totalWaiting, totalCompletion          simtime.Duration

	sortedWaitings []float64
	cdf            *stats.WeightedCDF
	seriesHorizon  simtime.Duration
	series         *[3][]float64
}

// AttachAccumulator binds the streaming accumulator the aggregates are
// answered from. core.NewResult calls it once per Result; a Result without
// one answers no aggregate.
func (r *Result) AttachAccumulator(a *Accumulator) { r.agg = a }

// Accumulator returns the attached streaming accumulator. Callers treat it
// as immutable: the simulation cache shares one accumulator across every
// Result rebuilt from the same cached run.
func (r *Result) Accumulator() *Accumulator { return r.agg }

// JobCount returns the number of jobs in the run, independent of whether
// per-job records were retained.
func (r *Result) JobCount() int { return r.agg.JobCount() }

// memoScalars fills the fused scalar totals from the columns on first use.
func (r *Result) memoScalars() {
	r.memo.mu.Lock()
	defer r.memo.mu.Unlock()
	if r.memo.scalars {
		return
	}
	a := r.agg
	var tc, bc, uc, wh float64
	var tw, tcomp simtime.Duration
	for i := range a.sched.carbons {
		tc += a.sched.carbons[i]
		bc += a.sched.baselines[i]
		uc += a.costs[i]
		wh += a.sched.waitings[i].Hours()
		tw += a.sched.waitings[i]
		tcomp += a.sched.waitings[i] + a.sched.lengths[i]
	}
	r.memo.totalCarbon = tc
	r.memo.baselineCarbon = bc
	r.memo.usageCost = uc
	r.memo.totalWaitingHours = wh
	r.memo.totalWaiting = tw
	r.memo.totalCompletion = tcomp
	r.memo.scalars = true
}

// TotalCarbon returns cluster emissions in grams.
func (r *Result) TotalCarbon() float64 {
	r.memoScalars()
	return r.memo.totalCarbon
}

// TotalCarbonKg returns cluster emissions in kilograms (the unit of
// Figure 16).
func (r *Result) TotalCarbonKg() float64 { return r.TotalCarbon() / 1000 }

// BaselineCarbon returns the NoWait counterfactual emissions in grams.
func (r *Result) BaselineCarbon() float64 {
	r.memoScalars()
	return r.memo.baselineCarbon
}

// CarbonSavingsFraction returns 1 − carbon/baseline, the paper's
// "normalized carbon savings". It returns 0 when the baseline is 0.
func (r *Result) CarbonSavingsFraction() float64 {
	base := r.BaselineCarbon()
	if base == 0 {
		return 0
	}
	return 1 - r.TotalCarbon()/base
}

// ReservedUpfront returns the pre-paid reserved cost over the horizon.
func (r *Result) ReservedUpfront() float64 {
	return r.Pricing.ReservedUpfront(r.Reserved, r.Horizon.Hours())
}

// UsageCost returns the pay-as-you-go dollars (on-demand + spot).
func (r *Result) UsageCost() float64 {
	r.memoScalars()
	return r.memo.usageCost
}

// TotalCost returns the cluster's total dollars: reserved upfront plus
// usage. This is the paper's cost metric.
func (r *Result) TotalCost() float64 { return r.ReservedUpfront() + r.UsageCost() }

// TotalWaiting returns the summed per-job waiting time.
func (r *Result) TotalWaiting() simtime.Duration {
	r.memoScalars()
	return r.memo.totalWaiting
}

// TotalWaitingHours returns the per-job waiting times summed in hours
// (each converted before summing, in job-ID order).
func (r *Result) TotalWaitingHours() float64 {
	r.memoScalars()
	return r.memo.totalWaitingHours
}

// MeanWaiting returns the mean per-job waiting time (0 for an empty run).
func (r *Result) MeanWaiting() simtime.Duration {
	n := r.JobCount()
	if n == 0 {
		return 0
	}
	return r.TotalWaiting() / simtime.Duration(n)
}

// MeanCompletion returns the mean per-job completion time (0 for an
// empty run). Completion is Waiting + Length by the accounting identity,
// so no separate column is needed.
func (r *Result) MeanCompletion() simtime.Duration {
	n := r.JobCount()
	if n == 0 {
		return 0
	}
	r.memoScalars()
	return r.memo.totalCompletion / simtime.Duration(n)
}

// WaitingPercentile returns the p-th percentile of per-job waiting times;
// tail waits matter for user-facing SLOs even when the mean looks benign.
// p is clamped to [0, 100]; a NaN p or an empty result yields 0. The
// sorted column is memoized, so successive percentile queries cost O(1)
// scans instead of a fresh copy-and-sort each.
func (r *Result) WaitingPercentile(p float64) simtime.Duration {
	if math.IsNaN(p) || r.JobCount() == 0 {
		return 0
	}
	r.memo.mu.Lock()
	if r.memo.sortedWaitings == nil {
		xs := make([]float64, len(r.agg.sched.waitings))
		for i, w := range r.agg.sched.waitings {
			xs[i] = float64(w)
		}
		sort.Float64s(xs)
		r.memo.sortedWaitings = xs
	}
	xs := r.memo.sortedWaitings
	r.memo.mu.Unlock()
	v, err := stats.PercentileSorted(xs, p)
	if err != nil {
		return 0
	}
	return simtime.Duration(v)
}

// TotalEvictions counts spot revocations across the run.
func (r *Result) TotalEvictions() int { return r.agg.evictions }

// TotalWastedCPUHours returns CPU·hours of execution lost to spot
// evictions (already included in the billed totals).
func (r *Result) TotalWastedCPUHours() float64 { return r.agg.wastedCPUHours }

// CPUHoursByOption returns total CPU·hours billed per purchase option.
func (r *Result) CPUHoursByOption() [3]float64 { return r.agg.cpuHours }

// ReservedUtilization returns used reserved CPU·hours over paid reserved
// CPU·hours (0 with no or degenerate reserved capacity). Low utilization
// is exactly the effect that raises the effective price of reservations
// under carbon-aware schedules.
func (r *Result) ReservedUtilization() float64 {
	paid := float64(r.Reserved) * r.Horizon.Hours()
	if paid <= 0 {
		return 0
	}
	return r.CPUHoursByOption()[cloud.Reserved] / paid
}

// UsageSeries returns the cluster's hourly mean CPU allocation per
// purchase option over [0, horizon) — the carbon-aware demand curves of
// Figure 2a and the artifact's runtime file. Index the outer dimension
// with cloud.Option.
func (r *Result) UsageSeries(horizon simtime.Duration) [3][]float64 {
	slots := int(horizon / simtime.Hour)
	var out [3][]float64
	if slots <= 0 {
		return out
	}
	r.memo.mu.Lock()
	defer r.memo.mu.Unlock()
	if r.memo.series != nil && r.memo.seriesHorizon == horizon {
		return *r.memo.series
	}
	// The bins hold integer CPU·minutes per hour, so dividing by 60 gives
	// the hourly mean exactly. Hours past the last bin saw no execution.
	for o := range out {
		out[o] = make([]float64, slots)
		bins := r.agg.usage[o]
		for s := 0; s < slots && s < len(bins); s++ {
			out[o][s] = float64(bins[s]) / 60
		}
	}
	r.memo.series, r.memo.seriesHorizon = &out, horizon
	return out
}

// PeakDemand returns the maximum total hourly CPU allocation across all
// options over [0, horizon).
func (r *Result) PeakDemand(horizon simtime.Duration) float64 {
	series := r.UsageSeries(horizon)
	var peak float64
	for s := range series[0] {
		total := series[0][s] + series[1][s] + series[2][s]
		if total > peak {
			peak = total
		}
	}
	return peak
}

// SavingsByLengthCDF returns the cumulative fraction of total carbon
// savings contributed by jobs of length <= x minutes (Figure 9). Only
// positive savings contribute weight.
func (r *Result) SavingsByLengthCDF() *stats.WeightedCDF {
	r.memo.mu.Lock()
	defer r.memo.mu.Unlock()
	if r.memo.cdf != nil {
		return r.memo.cdf
	}
	a := r.agg
	values := make([]float64, 0, len(a.sched.lengths))
	weights := make([]float64, 0, len(a.sched.lengths))
	for i := range a.sched.lengths {
		s := a.sched.baselines[i] - a.sched.carbons[i]
		if s <= 0 {
			continue
		}
		values = append(values, float64(a.sched.lengths[i]))
		weights = append(weights, s)
	}
	r.memo.cdf = stats.NewWeightedCDF(values, weights)
	return r.memo.cdf
}

// String summarizes the run for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s[%s/%s R=%d]: carbon=%.2fkg cost=$%.2f wait=%v jobs=%d",
		r.Label, r.Workload, r.Region, r.Reserved,
		r.TotalCarbonKg(), r.TotalCost(), r.MeanWaiting(), r.JobCount())
}

// Relative compares this result against a baseline run of the same
// workload: the paper's normalized metrics.
type Relative struct {
	Carbon     float64 // carbon / baseline carbon
	Cost       float64 // cost / baseline cost
	Waiting    float64 // mean waiting / baseline mean waiting (Inf-safe)
	Completion float64 // mean completion / baseline mean completion
}

// CompareTo computes normalized metrics against base. Waiting falls back
// to 0 denominator handling: a zero baseline (NoWait never waits) yields
// the raw hours instead of a ratio.
func (r *Result) CompareTo(base *Result) Relative {
	rel := Relative{Carbon: 1, Cost: 1, Waiting: 0, Completion: 1}
	if bc := base.TotalCarbon(); bc > 0 {
		rel.Carbon = r.TotalCarbon() / bc
	}
	if bcost := base.TotalCost(); bcost > 0 {
		rel.Cost = r.TotalCost() / bcost
	}
	if bw := base.MeanWaiting(); bw > 0 {
		rel.Waiting = float64(r.MeanWaiting()) / float64(bw)
	} else {
		rel.Waiting = r.MeanWaiting().Hours()
	}
	if bcm := base.MeanCompletion(); bcm > 0 {
		rel.Completion = float64(r.MeanCompletion()) / float64(bcm)
	}
	return rel
}
