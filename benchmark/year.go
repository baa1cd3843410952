package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// yearDays is the span of arrivals in every year-long trace; the carbon
// year leaves slack after it for the last jobs' waits.
const yearDays = 350

// yearTrace generates n AlibabaPAI jobs over the year from the seed.
func yearTrace(seed int64, n int) *workload.Trace {
	return workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(seed)), n, yearDays*simtime.Day)
}

// cpuHours is Σ length × cpus of a trace in CPU-hours: what every run
// over it must serve, apart from work lost to spot evictions.
func cpuHours(jobs *workload.Trace) float64 {
	var total float64
	for _, j := range jobs.Jobs {
		total += j.Length.Hours() * float64(j.CPUs)
	}
	return total
}

// checkRun applies the output checks every year run gets: every job
// completed, and the served CPU-hours equal the trace's demand plus the
// work spot evictions threw away. A malleable run may serve more (extra
// replicas scale sublinearly) but never less.
func checkRun(res *metrics.Result, jobs *workload.Trace, want float64, elastic bool) error {
	if got := res.JobCount(); got != jobs.Len() {
		return fmt.Errorf("%s: %d jobs completed, trace has %d", res.Label, got, jobs.Len())
	}
	byOpt := res.CPUHoursByOption()
	served := byOpt[0] + byOpt[1] + byOpt[2] - res.TotalWastedCPUHours()
	rel := (served - want) / want
	if elastic && rel > -1e-9 {
		return nil
	}
	if math.Abs(rel) > 1e-9 {
		return fmt.Errorf("%s: served %.6f CPU-hours, demand %.6f (relative error %.3g)", res.Label, served, want, rel)
	}
	return nil
}

// sameResult checks that a repeated run reproduced the first one exactly.
func sameResult(res, first *metrics.Result) error {
	if res.TotalCarbon() != first.TotalCarbon() || res.TotalCost() != first.TotalCost() ||
		res.TotalWaiting() != first.TotalWaiting() {
		return fmt.Errorf("%s: repeated run differs from the first (carbon %v vs %v)",
			res.Label, res.TotalCarbon(), first.TotalCarbon())
	}
	return nil
}

// yearCell is the year-direct cell: Carbon-Time with 500 reserved CPUs,
// streaming accounting, a cell the direct path and plan cache serve.
func yearCell(tr *carbon.Trace) core.Config {
	return core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 500}
}

// runYearDirect is the year-direct workload: op is core.Run on the
// million-job year, op2 is core.RunWithPlan replaying that cell's cached
// decision plan — what one more cell of a reserved-size sweep costs.
func runYearDirect(e *env) error {
	var (
		cfg  core.Config
		jobs *workload.Trace
		plan *core.DecisionPlan
		want float64
	)
	err := e.setup(func() error {
		// Trace generation plus the first decide, which builds the
		// oracle tables every later decision reads.
		cfg = yearCell(carbon.RegionSAAU.GenerateYear(e.seed))
		jobs = yearTrace(e.seed, e.sc.yearJobs)
		want = cpuHours(jobs)
		var err error
		plan, err = core.DecidePlan(context.Background(), cfg, jobs)
		return err
	})
	if err != nil {
		return err
	}

	var run, replay samples
	var pair tracePair
	var first, last *metrics.Result
	err = e.loop(4, func(i int) error {
		var res, rep *metrics.Result
		d, err := e.tr.do("core.Run", 1, func() (err error) {
			res, err = core.Run(cfg, jobs)
			return err
		})
		if err == nil {
			err = checkRun(res, jobs, want, false)
		}
		if err == nil && first != nil {
			err = sameResult(res, first)
		}
		record(e.rep, &run, d, err)
		if err == nil {
			pair.add(i, d)
		}

		d, err = e.tr.do("core.RunWithPlan", 1, func() (err error) {
			rep, err = core.RunWithPlan(context.Background(), cfg, jobs, plan)
			return err
		})
		if err == nil {
			err = checkRun(rep, jobs, want, false)
		}
		if err == nil && first == nil && res != nil {
			// The replay must be byte-identical to the full run.
			err = sameBytes("RunWithPlan accumulator",
				metrics.EncodeAccumulator(rep.Accumulator()), metrics.EncodeAccumulator(res.Accumulator()))
		}
		record(e.rep, &replay, d, err)
		if first == nil {
			first = res
		}
		last = rep
		return nil
	})
	if err != nil {
		return err
	}
	e.rep.timing("op_ms", "ms", &run)
	e.rep.timing("op2_ms", "ms", &replay)
	e.rep.set("rate_per_s", "1/s", float64(jobs.Len())/(run.median()/1e3), "simulated jobs per second of the median core.Run")
	e.rep.set("mem_mb", "MB", liveHeapMB(last), "post-GC heap, last result live")
	e.overhead(&pair)
	return nil
}

// engineCell is one year-engine cell: every one of them runs on the
// event engine, so the direct path and plan cache do no work here.
type engineCell struct {
	name    string
	cfg     core.Config
	jobs    *workload.Trace
	want    float64
	elastic bool
}

// engineCells builds the year-engine cells over one carbon year: a rigid
// trace for work conservation, suspend-resume and spot, and a malleable
// trace (60% of jobs elastic, half of those preemptible) for the hourly
// Greedy-Marginal reallocation loop.
func engineCells(seed int64, sc scale) []engineCell {
	tr := carbon.RegionSAAU.GenerateYear(seed)
	rigid := yearTrace(seed, sc.engineJobs)
	base := yearTrace(seed+1, sc.elasticJobs)
	specs := make([]workload.ElasticSpec, base.Len())
	for i := range specs {
		switch i % 5 {
		case 0, 1:
			specs[i] = workload.DegenerateSpec()
		case 2, 3:
			specs[i] = workload.ElasticSpec{MinReplicas: 1, MaxReplicas: 4, Curve: workload.AmdahlCurve(0.9, 4)}
		default:
			specs[i] = workload.ElasticSpec{MinReplicas: 0, MaxReplicas: 2, Curve: workload.AmdahlCurve(0.85, 2)}
		}
	}
	et := workload.MustElasticTrace("bench-elastic-year", base.Jobs, specs, nil)
	rigidWant := cpuHours(rigid)
	return []engineCell{
		{"wc-carbontime", core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 100, WorkConserving: true}, rigid, rigidWant, false},
		{"waitawhile", core.Config{Policy: policy.WaitAwhile{}, Carbon: tr}, rigid, rigidWant, false},
		{"spot-res", core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 100,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: 7}, rigid, rigidWant, false},
		{"elastic", core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 60, Elastic: et,
			Allocator: policy.GreedyMarginal{}, Horizon: simtime.Year}, et.Jobs, cpuHours(et.Jobs), true},
	}
}

// runCell runs one engine cell under a span named after it.
func runCell(e *env, c engineCell) (*metrics.Result, time.Duration, error) {
	var res *metrics.Result
	d, err := e.tr.do("core.Run."+c.name, 1, func() (err error) {
		res, err = core.Run(c.cfg, c.jobs)
		return err
	})
	if err == nil {
		err = checkRun(res, c.jobs, c.want, c.elastic)
	}
	return res, d, err
}

// runYearEngine is the year-engine workload: op is one iteration of the
// four engine cells in order, op2 the elastic cell alone.
func runYearEngine(e *env) error {
	var cells []engineCell
	err := e.setup(func() error {
		cells = engineCells(e.seed, e.sc)
		// One pass builds the oracle tables the cells read.
		for _, c := range cells {
			if _, _, err := runCell(e, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var iter, elastic samples
	var pair tracePair
	first := make([]*metrics.Result, len(cells))
	last := make([]*metrics.Result, len(cells))
	var jobsPerIter int
	for _, c := range cells {
		jobsPerIter += c.jobs.Len()
	}
	err = e.loop(4, func(i int) error {
		d, err := e.tr.do("year-engine.iteration", int64(len(cells)), func() error {
			var failed error
			for k, c := range cells {
				res, t, err := runCell(e, c)
				if err == nil && first[k] != nil {
					err = sameResult(res, first[k])
				}
				if c.elastic {
					record(e.rep, &elastic, t, err)
				}
				if failed == nil {
					failed = err
				}
				if first[k] == nil {
					first[k] = res
				}
				last[k] = res
			}
			return failed
		})
		record(e.rep, &iter, d, err)
		if err == nil {
			pair.add(i, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.rep.timing("op_ms", "ms", &iter)
	e.rep.timing("op2_ms", "ms", &elastic)
	e.rep.set("rate_per_s", "1/s", float64(jobsPerIter)/(iter.median()/1e3), "simulated jobs per second of the median iteration over the four cells")
	e.rep.set("mem_mb", "MB", liveHeapMB(last), "post-GC heap, last results live")
	e.overhead(&pair)
	return nil
}

// liveHeapMB is the heap left after a full collection, with keep still
// referenced: what a caller pays to hold the answer.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
