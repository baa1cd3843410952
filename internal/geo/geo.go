// Package geo adds spatial workload shifting across geo-distributed
// regions — the future work the paper defers ("Spatial batch scheduling
// across geo-distributed clusters is left for future research", §2.1).
//
// Each arriving job is placed in the candidate region where the
// scheduling policy's own temporal decision yields the lowest forecast
// carbon, then each region's cluster runs the GAIA-Simulator over its
// share. Data-gravity and transfer costs are out of scope (as in the
// related spatial-shifting work the paper cites); the model answers the
// pure question of how much carbon region choice adds over temporal
// shifting alone.
package geo

import (
	"errors"
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Config describes a multi-region deployment. Per-region cluster knobs
// (pricing, queues, horizon) follow core.Config defaults.
type Config struct {
	// Policy is the temporal policy applied inside every region.
	Policy policy.Policy
	// Regions are the candidate carbon traces (their Region() labels the
	// clusters).
	Regions []*carbon.Trace
	// ShortMax / WaitShort / WaitLong configure the queues, as in
	// core.Config (zero = paper defaults).
	ShortMax            simtime.Duration
	WaitShort, WaitLong simtime.Duration
	// Horizon is every region's accounting horizon (0 = each region's own
	// carbon-trace horizon, as in core.Config).
	Horizon simtime.Duration
}

// Result aggregates a multi-region run.
type Result struct {
	// PerRegion holds each region's cluster result (possibly with zero
	// jobs when the region never wins a placement).
	PerRegion []*metrics.Result
	// Assignments maps job ID → region index.
	Assignments map[int]int
}

// TotalCarbon returns emissions across regions in grams.
func (r *Result) TotalCarbon() float64 {
	var total float64
	for _, res := range r.PerRegion {
		total += res.TotalCarbon()
	}
	return total
}

// TotalCost sums cluster costs across regions.
func (r *Result) TotalCost() float64 {
	var total float64
	for _, res := range r.PerRegion {
		total += res.TotalCost()
	}
	return total
}

// MeanWaiting returns the job-weighted mean waiting time.
func (r *Result) MeanWaiting() simtime.Duration {
	var total simtime.Duration
	var n int
	for _, res := range r.PerRegion {
		total += res.TotalWaiting()
		n += res.JobCount()
	}
	if n == 0 {
		return 0
	}
	return total / simtime.Duration(n)
}

// JobShare returns the fraction of jobs placed in each region.
func (r *Result) JobShare() []float64 {
	shares := make([]float64, len(r.PerRegion))
	var n int
	for i, res := range r.PerRegion {
		shares[i] = float64(res.JobCount())
		n += res.JobCount()
	}
	if n > 0 {
		for i := range shares {
			shares[i] /= float64(n)
		}
	}
	return shares
}

// Run places every job spatially and simulates each region's cluster
// through run: core.Run simulates directly, and callers that route their
// simulations through a cache or worker pool pass that route instead.
func Run(cfg Config, jobs *workload.Trace, run func(core.Config, *workload.Trace) (*metrics.Result, error)) (*Result, error) {
	if cfg.Policy == nil {
		return nil, errors.New("geo: config needs a policy")
	}
	if len(cfg.Regions) == 0 {
		return nil, errors.New("geo: config needs at least one region")
	}
	if cfg.ShortMax == 0 {
		cfg.ShortMax = 2 * simtime.Hour
	}
	if cfg.WaitShort == 0 {
		cfg.WaitShort = 6 * simtime.Hour
	}
	if cfg.WaitLong == 0 {
		cfg.WaitLong = 24 * simtime.Hour
	}

	trace := workload.MustTrace(jobs.Name, jobs.Jobs)
	trace.AssignQueues(cfg.ShortMax)

	// Per-region policy contexts (queue averages come from the full
	// trace: the per-queue length statistics are region-independent).
	contexts := make([]*policy.Context, len(cfg.Regions))
	for i, tr := range cfg.Regions {
		contexts[i] = &policy.Context{
			CIS: carbon.NewPerfectService(tr),
			Queues: map[workload.Queue]policy.QueueInfo{
				workload.QueueShort: {MaxWait: cfg.WaitShort, AvgLength: trace.MeanLengthByQueue(workload.QueueShort)},
				workload.QueueLong:  {MaxWait: cfg.WaitLong, AvgLength: trace.MeanLengthByQueue(workload.QueueLong)},
			},
		}
		// The placement loop probes every region's context per job;
		// answering from the oracle tables makes that loop O(regions).
		contexts[i].EnableFastPaths()
	}

	// Spatial placement: the region whose temporal decision forecasts
	// the least carbon for this job wins it.
	assignments := make(map[int]int, trace.Len())
	perRegionJobs := make([][]workload.Job, len(cfg.Regions))
	for _, job := range trace.Jobs {
		best, bestCarbon := 0, 0.0
		for i, ctx := range contexts {
			d := cfg.Policy.Decide(job, job.Arrival, ctx)
			c := decisionCarbon(ctx.CIS, d, job)
			if i == 0 || c < bestCarbon {
				best, bestCarbon = i, c
			}
		}
		assignments[job.ID] = best
		perRegionJobs[best] = append(perRegionJobs[best], job)
	}

	out := &Result{Assignments: assignments, PerRegion: make([]*metrics.Result, len(cfg.Regions))}
	for i, tr := range cfg.Regions {
		sub, err := workload.NewTrace(fmt.Sprintf("%s@%s", trace.Name, tr.Region()), perRegionJobs[i])
		if err != nil {
			return nil, err
		}
		res, err := run(core.Config{
			Policy:    cfg.Policy,
			Carbon:    tr,
			ShortMax:  cfg.ShortMax,
			WaitShort: cfg.WaitShort,
			WaitLong:  cfg.WaitLong,
			Horizon:   cfg.Horizon,
		}, sub)
		if err != nil {
			return nil, err
		}
		out.PerRegion[i] = res
	}
	return out, nil
}

// decisionCarbon forecasts the carbon of executing the decision, using
// the job's true length only for the (simulator-side) integral bounds —
// the ranking across regions is what matters.
func decisionCarbon(cis carbon.Service, d policy.Decision, job workload.Job) float64 {
	if !d.IsPlan() {
		return cis.ForecastIntegral(job.Arrival, simtime.Interval{Start: d.Start, End: d.Start.Add(job.Length)})
	}
	var total float64
	var covered simtime.Duration
	for _, iv := range d.Plan {
		if covered >= job.Length {
			break
		}
		if iv.Len() > job.Length-covered {
			iv.End = iv.Start.Add(job.Length - covered)
		}
		total += cis.ForecastIntegral(job.Arrival, iv)
		covered += iv.Len()
	}
	return total
}
