package policy

import (
	"cmp"
	"slices"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// ElasticJobView is the allocator-visible state of one running (or
// suspended) malleable job at a reallocation boundary: its elasticity
// contract, the serial-equivalent work left in minutes (Remaining) and
// the current allocation (Replicas, 0 = suspended).
type ElasticJobView struct {
	ID    int
	Queue workload.Queue
	CPUs  int // per-replica width
	workload.ElasticSpec
	Remaining float64
	Replicas  int
}

// ElasticAllocator reallocates replicas across the running malleable jobs
// at every hour boundary — the CarbonScaler control loop. Allocate returns
// one replica grant per view (same order). Grants are advisory: the
// scheduler clamps each to [MinReplicas, MaxReplicas], forbids suspension
// (a zero grant) unless MinReplicas is 0 and the job's waiting-time
// guarantee still has room, and always honours the base width
// max(MinReplicas, 1). capacity is the CPU budget for replicas beyond the
// base widths (base allocations are pre-granted and not counted): the
// scheduler passes the reserved pool's idle capacity
// at the boundary, further capped by Config.ElasticCapacity when that is
// positive, so scale-ups ride capacity that is already paid for and are
// free by construction. A negative capacity (never produced by the
// scheduler) lifts the bound for direct callers.
//
// Grants are borrowed, like the plans of Decision: they are valid only
// until the next Allocate on the same Context, and a caller that keeps
// them past that point copies them first. StaticAlloc and GreedyMarginal
// return grants backed by scratch storage of ctx, which must be non-nil.
//
// Implementations must be deterministic pure functions of their arguments
// — allocations are part of the simulation cache key via the config
// fingerprint, so hidden state would poison cached results.
type ElasticAllocator interface {
	// Name returns the allocator's display name.
	Name() string
	// Allocate chooses replica grants for the boundary at now.
	Allocate(jobs []ElasticJobView, now simtime.Time, capacity int, ctx *Context) []int
}

// StaticAlloc pins every job to its base width max(MinReplicas, 1):
// elasticity machinery on, no actual scaling — the rigid reference point
// of the elastic figure suite and the default allocator.
type StaticAlloc struct{}

// Name implements ElasticAllocator.
func (StaticAlloc) Name() string { return "Static-Min" }

// Allocate implements ElasticAllocator.
func (StaticAlloc) Allocate(jobs []ElasticJobView, _ simtime.Time, _ int, ctx *Context) []int {
	grants := ctx.grantBuf(len(jobs))
	for i, v := range jobs {
		grants[i] = v.MinReplicas
		if grants[i] < 1 {
			grants[i] = 1
		}
	}
	return grants
}

// GreedyMarginal is the CarbonScaler-style marginal-capacity allocator:
// each hour it compares the hour's carbon intensity against the
// forecast 24-hour mean (the "greenness" g — below 1 is a clean hour) and
// grants extra replicas to the jobs with the highest marginal throughput
// per CPU while each marginal clears ScaleThreshold·g; in dirty hours
// (g ≥ PreemptAbove) preemptible jobs (MinReplicas 0) are suspended
// outright. Replicas therefore concentrate work into the cleanest hours
// of the day, paying the scale curve's inefficiency only when the carbon
// price of an hour is low enough to cover it.
type GreedyMarginal struct {
	// ScaleThreshold is the marginal-throughput floor per unit greenness a
	// replica must clear to be granted (default 0.75).
	ScaleThreshold float64
	// PreemptAbove is the greenness at which preemptible jobs suspend
	// (default 1.25 — a quarter dirtier than the daily mean).
	PreemptAbove float64
}

// Name implements ElasticAllocator.
func (GreedyMarginal) Name() string { return "Greedy-Marginal" }

// Allocate implements ElasticAllocator.
func (a GreedyMarginal) Allocate(jobs []ElasticJobView, now simtime.Time, capacity int, ctx *Context) []int {
	thresh := a.ScaleThreshold
	if thresh <= 0 {
		thresh = 0.75
	}
	preempt := a.PreemptAbove
	if preempt <= 0 {
		preempt = 1.25
	}
	g := greenness(ctx, now)

	grants := ctx.grantBuf(len(jobs))
	cands := ctx.cands[:0]
	for i, v := range jobs {
		base := v.MinReplicas
		if base < 1 {
			base = 1
		}
		if v.MinReplicas == 0 && g >= preempt {
			grants[i] = 0
			continue
		}
		grants[i] = base
		for r := base; r < v.MaxReplicas; r++ {
			m := v.Curve[r]
			if m < thresh*g {
				break // marginals are non-increasing: later replicas fail too
			}
			cands = append(cands, marginalCand{value: m / float64(v.CPUs), id: v.ID, view: i, r: r})
		}
	}
	slices.SortFunc(cands, compareMarginal)
	ctx.cands = cands
	budget := capacity
	for _, c := range cands {
		w := jobs[c.view].CPUs
		if capacity >= 0 {
			if budget < w {
				continue
			}
			budget -= w
		}
		grants[c.view]++
	}
	return grants
}

// marginalCand is one replica Greedy-Marginal may grant: replica r
// (0-based) of the job at index view, whose ID is id, worth value
// marginal throughput per CPU.
type marginalCand struct {
	value float64
	id    int
	view  int
	r     int
}

// compareMarginal orders candidates by marginal throughput per CPU,
// highest first, then by job ID, view index and replica index, which
// also grants replica r before r+1. Views carry distinct IDs when the
// scheduler builds them, so the view index decides nothing there; it
// makes the order a strict total order for any views, so every correct
// sort yields one order. cmp.Compare orders even a NaN marginal, which
// workload.ScaleCurve.Validate rejects anyway.
func compareMarginal(a, b marginalCand) int {
	if c := cmp.Compare(b.value, a.value); c != 0 {
		return c
	}
	if c := cmp.Compare(a.id, b.id); c != 0 {
		return c
	}
	if c := cmp.Compare(a.view, b.view); c != 0 {
		return c
	}
	return cmp.Compare(a.r, b.r)
}

// greenness is the hour's forecast carbon integral relative to the
// forecast daily mean: 1 means an average hour, below 1 cleaner than
// average. A zero daily integral (an all-zero trace) reports 1.
func greenness(ctx *Context, now simtime.Time) float64 {
	hour := ctx.CIS.ForecastIntegral(now, simtime.Interval{Start: now, End: now.Add(simtime.Hour)})
	day := ctx.CIS.ForecastIntegral(now, simtime.Interval{Start: now, End: now.Add(24 * simtime.Hour)})
	if day <= 0 {
		return 1
	}
	return hour / (day / 24)
}

// CriticalPathShift is the DAG-aware shifter: it runs the Carbon-Time
// objective, but a job's waiting window is capped by its precedence slack
// (Context.SlackFn, critical-path analysis over the DAG), so zero-slack
// jobs start as early as Carbon-Time's no-saving fallback would and only
// off-critical-path jobs shift — the schedule saves carbon without
// stretching the DAG's completion the way blanket shifting does. Jobs
// without precedence edges keep their full queue window, making the policy
// identical to Carbon-Time on edge-free traces.
type CriticalPathShift struct{}

// Name implements Policy.
func (CriticalPathShift) Name() string { return "Critical-Path" }

// Decide implements Policy.
func (CriticalPathShift) Decide(job workload.Job, now simtime.Time, ctx *Context) Decision {
	w := ctx.Queue(job.Queue).MaxWait
	if ctx.SlackFn != nil {
		if s, ok := ctx.SlackFn(job.ID); ok && s < w {
			w = s
		}
	}
	return carbonTimeScan(job, now, ctx, w)
}
