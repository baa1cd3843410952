package batch

import (
	"errors"
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/cluster"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Config describes one prototype-cluster run. It mirrors core.Config where
// the two runtimes share concepts, plus the node-level knobs the
// simulator abstracts away.
type Config struct {
	// Policy picks carbon-aware start times (uninterruptible policies;
	// suspend-resume plans execute as hold/release segments).
	Policy policy.Policy
	// Carbon is the realized CI trace (also the perfect CIS by default).
	Carbon *carbon.Trace
	// CIS overrides the forecast service (nil = perfect).
	CIS carbon.Service
	// ReservedNodes is the fixed pre-paid fleet size.
	ReservedNodes int
	// SpotMaxLen routes jobs up to this length to spot nodes.
	SpotMaxLen simtime.Duration
	// EvictionRate is the hourly spot interruption probability.
	EvictionRate float64
	// BootDelay / IdleTimeout are the elastic-node lifecycle knobs
	// (defaults 3 min / 10 min, ParallelCluster-like).
	BootDelay, IdleTimeout simtime.Duration
	Pricing                cloud.Pricing
	Power                  cloud.Power
	// Queues is the job-length queue ladder, as in core.Config: nil means
	// the paper's two queues, and a MaxWait of 0 means no waiting.
	Queues workload.QueueLadder
	// Horizon is the accounting horizon (0 = carbon trace horizon).
	Horizon simtime.Duration
	Seed    int64
}

// Result aggregates a prototype run. Unlike metrics.Result, cost and
// carbon are fleet-level (whole instance lifetimes), matching how a real
// cloud bill looks.
type Result struct {
	Label   string
	Jobs    []*Job
	Cost    float64 // dollars: reserved upfront + elastic lifetimes
	CarbonG float64 // grams: elastic lifetimes + reserved busy time
	// NodesLaunched counts elastic instances created (churn indicator).
	NodesLaunched int
	Horizon       simtime.Duration
}

// MeanWaiting returns the mean job delay.
func (r *Result) MeanWaiting() simtime.Duration {
	if len(r.Jobs) == 0 {
		return 0
	}
	var total simtime.Duration
	for _, j := range r.Jobs {
		total += j.Waiting()
	}
	return total / simtime.Duration(len(r.Jobs))
}

// CarbonKg returns total emissions in kilograms.
func (r *Result) CarbonKg() float64 { return r.CarbonG / 1000 }

// TotalEvictions counts spot interruptions across the run.
func (r *Result) TotalEvictions() int {
	n := 0
	for _, j := range r.Jobs {
		n += j.Interruptions
	}
	return n
}

// Run executes the workload on the prototype runtime.
func Run(cfg Config, jobs *workload.Trace) (res *Result, err error) {
	if cfg.Policy == nil {
		return nil, errors.New("batch: config needs a policy")
	}
	if cfg.Carbon == nil {
		return nil, errors.New("batch: config needs a carbon trace")
	}
	if cfg.CIS == nil {
		cfg.CIS = carbon.NewPerfectService(cfg.Carbon)
	}
	if cfg.Pricing == (cloud.Pricing{}) {
		cfg.Pricing = cloud.DefaultPricing()
	}
	if cfg.Power == (cloud.Power{}) {
		cfg.Power = cloud.DefaultPower()
	}
	if err := cfg.Queues.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = cfg.Carbon.Horizon()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("batch: run failed: %v", r)
		}
	}()

	engine := sim.NewEngine()
	mgr, err := cluster.NewManager(cluster.Config{
		Engine:        engine,
		Carbon:        cfg.Carbon,
		Pricing:       cfg.Pricing,
		Power:         cfg.Power,
		ReservedNodes: cfg.ReservedNodes,
		BootDelay:     cfg.BootDelay,
		IdleTimeout:   cfg.IdleTimeout,
		EvictionRate:  cfg.EvictionRate,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	sys := NewSystem(engine, mgr, cfg.Power, cfg.Carbon.Integral)

	ctx := &policy.Context{CIS: cfg.CIS, Queues: policy.QueueTable(cfg.Queues, jobs, nil)}
	// No-op unless the CIS is perfect-knowledge; decisions are
	// bit-identical either way (see policy.Context.EnableFastPaths).
	ctx.EnableFastPaths()

	bounds := cfg.Queues.Bounds()
	for _, spec := range jobs.Jobs {
		spec.Queue = workload.ClassifyLength(spec.Length, bounds)
		engine.Schedule(spec.Arrival, sim.PriorityArrival, func() {
			j := sys.Submit(spec)
			now := engine.Now()
			d := cfg.Policy.Decide(spec, now, ctx)
			if err := d.Validate(spec, now); err != nil {
				panic(fmt.Sprintf("policy %s: %v", cfg.Policy.Name(), err))
			}
			spotEligible := cfg.SpotMaxLen > 0 && spec.Length <= cfg.SpotMaxLen
			if d.IsPlan() {
				// Suspend-resume on the node runtime: each plan segment
				// is released separately (Slurm suspend/resume driven by
				// GAIA). Segments chain via onSuspend so boot delays
				// never overlap consecutive segments. The policy's plan is
				// borrowed and the segments outlive this Decide, so they
				// are normalized into a slice of the job's own.
				plan := policy.NormalizePlan(nil, d.Plan, spec.Length)
				prefs := []cloud.Option{cloud.Reserved, cloud.OnDemand}
				launch := cloud.OnDemand
				if spotEligible {
					prefs, launch = []cloud.Option{cloud.Spot}, cloud.Spot
				}
				next := 0
				var scheduleNext func()
				scheduleNext = func() {
					if next >= len(plan) {
						return
					}
					seg := plan[next]
					next++
					at := simtime.MaxTime(seg.Start, engine.Now())
					engine.Schedule(at, sim.PriorityStart, func() {
						sys.ReleaseSegment(j, seg.Len(), next == len(plan), prefs, launch)
					})
				}
				j.onSuspend = scheduleNext
				scheduleNext()
				return
			}
			if _, isAllWait := cfg.Policy.(policy.AllWait); isAllWait {
				// The cost baseline on the prototype: queue for reserved
				// capacity immediately; at the waiting deadline, fall
				// back to launching on-demand nodes.
				sys.Release(j, []cloud.Option{cloud.Reserved}, NeverLaunch)
				engine.Schedule(d.Start, sim.PriorityStart, func() {
					sys.Upgrade(j, []cloud.Option{cloud.Reserved, cloud.OnDemand}, cloud.OnDemand)
				})
				return
			}
			engine.Schedule(d.Start, sim.PriorityStart, func() {
				if spotEligible {
					sys.Release(j, []cloud.Option{cloud.Spot}, cloud.Spot)
					return
				}
				sys.Release(j, []cloud.Option{cloud.Reserved, cloud.OnDemand}, cloud.OnDemand)
			})
		})
	}
	engine.Run()
	mgr.Shutdown()

	cost, elasticCarbon := mgr.Bill(cfg.Horizon)
	result := &Result{
		Label:   cfg.Policy.Name(),
		Jobs:    sys.Jobs(),
		Cost:    cost,
		CarbonG: elasticCarbon,
		Horizon: cfg.Horizon,
	}
	for _, j := range sys.Jobs() {
		result.CarbonG += j.ReservedBusyCarbon
		if j.State != Completed {
			return nil, fmt.Errorf("batch: job %d ended in state %v", j.Spec.ID, j.State)
		}
	}
	for _, n := range mgr.Nodes() {
		if n.Option != cloud.Reserved {
			result.NodesLaunched++
		}
	}
	return result, nil
}
