// Package core implements GAIA, the carbon-, performance- and cost-aware
// cloud batch scheduler that is the paper's contribution. It wires the
// substrates together: jobs arrive from a workload trace, a policy picks
// start times (or suspend-resume plans) using the Carbon Information
// Service, and the resource manager places execution on reserved,
// on-demand and spot capacity while the accounting layer tracks carbon,
// cost and waiting time.
//
// The cost-aware mechanisms are configuration, orthogonal to the policy:
//
//   - Config.WorkConserving enables RES-First behaviour: an arriving job
//     starts immediately when it fits in idle reserved capacity, and a
//     waiting job is started early the moment reserved units free up.
//   - Config.SpotMaxLen enables Spot-First behaviour: jobs no longer than
//     the limit run on spot instances at the policy's carbon-aware start
//     and restart on on-demand capacity if evicted.
//   - Setting both reproduces the paper's combined Spot-RES policy.
package core

import (
	"errors"
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Config describes one GAIA cluster run.
type Config struct {
	// Label names the configuration in results; empty derives
	// "<modifiers><policy>" automatically.
	Label string

	// Policy chooses job start times. Required.
	Policy policy.Policy

	// Carbon is the realized carbon-intensity trace. Required.
	Carbon *carbon.Trace

	// CIS is the forecast service policies consult; nil wraps Carbon in
	// a perfect-knowledge service (the paper's assumption).
	CIS carbon.Service

	// Reserved is the pre-paid reserved capacity in CPU units.
	Reserved int

	// WorkConserving enables RES-First early starts on idle reserved
	// capacity. It requires an uninterruptible (start-based) policy.
	WorkConserving bool

	// SpotMaxLen routes jobs of at most this length to spot instances
	// (0 disables spot). The paper uses the short queue's bound (2 h) by
	// default and sweeps this "J^max" in Figures 18-19.
	SpotMaxLen simtime.Duration

	// EvictionRate is the hourly spot eviction probability in [0, 1).
	EvictionRate float64

	// CheckpointInterval enables checkpoint/restart for spot executions
	// (0 = disabled, the paper's default assumption of full progress
	// loss). A running spot job checkpoints after every interval of
	// useful work; an eviction then loses only the progress since the
	// last checkpoint, and the job resumes the remainder on on-demand
	// capacity. This realizes the checkpointing-overhead vs eviction
	// trade-off the paper defers to future work (§4.2.4).
	CheckpointInterval simtime.Duration

	// CheckpointOverhead is the runtime added per checkpoint
	// (default 2 min when checkpointing is enabled).
	CheckpointOverhead simtime.Duration

	// Pricing is the price book; zero value uses cloud.DefaultPricing.
	Pricing cloud.Pricing

	// Power is the energy model; zero value uses cloud.DefaultPower.
	Power cloud.Power

	// ShortMax is the short queue's maximum job length (default 2 h).
	ShortMax simtime.Duration

	// WaitShort / WaitLong are the queues' maximum waiting times
	// (defaults 6 h / 24 h, the paper's configuration). A negative value
	// means an explicit zero wait (0 selects the default).
	WaitShort, WaitLong simtime.Duration

	// Queues optionally replaces the two-queue configuration above with
	// an arbitrary ascending ladder of length classes (§4.2: "our
	// policies can be extended to an arbitrary number of queues"). The
	// last entry's MaxLength may be 0 (unbounded). When set, ShortMax,
	// WaitShort and WaitLong are ignored.
	Queues []QueueSpec

	// Horizon is the accounting horizon; reserved capacity is paid for
	// all of it. Zero uses the carbon trace's horizon.
	Horizon simtime.Duration

	// AvgLengthOverride replaces the queue-average length estimates that
	// length-oblivious policies consult (by default they are computed
	// from the trace). Used for estimate-quality sensitivity studies.
	AvgLengthOverride map[workload.Queue]simtime.Duration

	// Elastic attaches malleable specs and precedence edges to the run's
	// jobs (see workload.ElasticTrace). Its Jobs trace must be the very
	// trace passed to Run — the specs are keyed by normalized job ID. Nil
	// runs every job rigid. A trace whose specs are all degenerate and
	// edge-free behaves exactly like nil (no elastic machinery engages),
	// but still routes the run onto the event engine.
	Elastic *workload.ElasticTrace

	// Allocator reallocates replicas across running malleable jobs at
	// every hour boundary; nil defaults to policy.StaticAlloc (every job
	// pinned at its base width). Ignored without Elastic.
	Allocator policy.ElasticAllocator

	// ElasticCapacity further bounds the CPU budget the allocator may
	// spend on replicas beyond the jobs' base widths. The budget each
	// hour is the reserved pool's idle capacity — scale-ups only ever
	// ride prepaid capacity, so they are free by construction — and a
	// positive ElasticCapacity caps it lower still (0 = no extra cap).
	// Base widths are always granted regardless.
	ElasticCapacity int

	// RetainJobs materializes the full per-job JobResult records
	// (including execution segments) in Result.Jobs. By default the
	// scheduler streams each finished job into the metrics accumulator
	// and retains nothing per job; retention is the escape hatch for
	// per-job consumers — CSV detail export, the accounting DB, and
	// record-level tests. Every aggregate is answered identically in
	// both modes.
	RetainJobs bool

	// Mechanism pins the run to one execution mechanism; the zero value
	// lets Run choose. Every mechanism produces bit-identical results, so
	// a pinned run exists only to compare mechanisms (differential tests
	// and benchmarks), and it never reads or writes the result or plan
	// caches — a cached answer would compare a mechanism against itself.
	Mechanism Mechanism

	// Seed drives the spot eviction process.
	Seed int64
}

// Mechanism selects how Run executes a configuration. It is one byte so
// that, beside RetainJobs, it fits in padding Config already had: as an
// 8-byte field it grew Config from 248 to 256 bytes, and the engine-only
// year benchmark ran about 4% slower (2-core VM, 10 alternating pairs)
// although no per-event code reads the field.
type Mechanism uint8

const (
	// MechanismAuto takes the direct path when directEligible admits the
	// configuration and the event engine on the timing wheel otherwise.
	MechanismAuto Mechanism = iota
	// MechanismEngine always runs the event engine on the timing wheel.
	MechanismEngine
	// MechanismHeapEngine always runs the event engine on the reference
	// heap queue the timing wheel replaced.
	MechanismHeapEngine
)

// DirectPathEligible reports whether Run would serve this configuration
// via the direct-execution path. The rule is deliberately conservative —
// see directEligible for the reasoning per knob.
func (c Config) DirectPathEligible() bool {
	canon := c.withDefaults()
	if canon.validate() != nil {
		return false
	}
	return canon.directEligible()
}

// directEligible is the direct-path admission rule, evaluated on a
// defaulted config. The path is sound exactly when every job's execution
// is a pure function of (job, arrival, oracle tables), and the caller left
// the choice of mechanism to Run (MechanismAuto):
//
//   - WorkConserving couples decisions to pool occupancy (early starts on
//     freed reserved units), so starts stop being pure — fall back.
//   - SpotMaxLen > 0 routes jobs through the eviction process and
//     multi-interval spot schedules — fall back.
//   - Plan-capable policies (WaitAwhile, WaitAwhileEst, Ecovisor) execute
//     suspend-resume schedules the sweep replay does not model — only the
//     start-based policies known to return pure start decisions may ride.
//     Unknown policy implementations fall back unvetted.
//   - A non-perfect CIS is an opaque implementation whose Forecast may be
//     stateful or time-dependent; only the immutable PerfectService has
//     the purity guarantee the parallel decide phase needs.
//   - An Elastic trace — even an all-degenerate one — makes decisions
//     observe schedule state (precedence releases, hourly reallocation),
//     so the plan cache could serve a stale rigid plan for an elastic
//     cell; any non-nil Elastic falls back.
//
// Every other knob (Reserved level, queues, pricing, power, horizon,
// retention) is replicated exactly by the sweep replay.
func (c Config) directEligible() bool {
	if c.Mechanism != MechanismAuto {
		return false
	}
	if c.WorkConserving || c.SpotMaxLen > 0 {
		return false
	}
	if c.Elastic != nil {
		return false
	}
	if _, ok := c.CIS.(*carbon.PerfectService); !ok {
		return false
	}
	switch c.Policy.(type) {
	case policy.NoWait, policy.AllWait, policy.LowestSlot, policy.LowestWindow, policy.CarbonTime,
		policy.CriticalPathShift:
		// CriticalPathShift is pure too: with Elastic nil (guaranteed
		// above) its SlackFn is never set, so it degenerates to
		// Carbon-Time's start scan.
		return true
	default:
		return false
	}
}

// QueueSpec configures one job-length queue: the inclusive length bound
// that routes jobs into it and the maximum waiting time W the scheduler
// guarantees for it.
type QueueSpec struct {
	// MaxLength is the queue's inclusive job-length bound; 0 on the last
	// queue means unbounded.
	MaxLength simtime.Duration
	// MaxWait is the queue's waiting-time guarantee. Like the top-level
	// wait fields, a negative value means an explicit zero.
	MaxWait simtime.Duration
}

// withDefaults returns a copy with zero values filled in.
func (c Config) withDefaults() Config {
	if c.CIS == nil && c.Carbon != nil {
		c.CIS = carbon.NewPerfectService(c.Carbon)
	}
	if c.Pricing == (cloud.Pricing{}) {
		c.Pricing = cloud.DefaultPricing()
	}
	if c.Power == (cloud.Power{}) {
		c.Power = cloud.DefaultPower()
	}
	if c.ShortMax == 0 {
		c.ShortMax = 2 * simtime.Hour
	}
	switch {
	case c.WaitShort == 0:
		c.WaitShort = 6 * simtime.Hour
	case c.WaitShort < 0:
		c.WaitShort = 0
	}
	switch {
	case c.WaitLong == 0:
		c.WaitLong = 24 * simtime.Hour
	case c.WaitLong < 0:
		c.WaitLong = 0
	}
	if len(c.Queues) == 0 {
		c.Queues = []QueueSpec{
			{MaxLength: c.ShortMax, MaxWait: c.WaitShort},
			{MaxLength: 0, MaxWait: c.WaitLong},
		}
	} else {
		qs := append([]QueueSpec(nil), c.Queues...)
		for i := range qs {
			if qs[i].MaxWait < 0 {
				qs[i].MaxWait = 0
			}
		}
		c.Queues = qs
	}
	if c.Horizon == 0 && c.Carbon != nil {
		c.Horizon = c.Carbon.Horizon()
	}
	if c.CheckpointInterval > 0 && c.CheckpointOverhead == 0 {
		c.CheckpointOverhead = 2 * simtime.Minute
	}
	if c.Elastic != nil && c.Allocator == nil {
		c.Allocator = policy.StaticAlloc{}
	}
	if c.Label == "" {
		c.Label = c.deriveLabel()
	}
	return c
}

// deriveLabel builds the paper-style configuration name.
func (c Config) deriveLabel() string {
	name := ""
	if c.Policy != nil {
		name = c.Policy.Name()
	}
	switch {
	case c.SpotMaxLen > 0 && c.Reserved > 0:
		return "Spot-RES-" + name
	case c.SpotMaxLen > 0:
		return "Spot-First-" + name
	case c.WorkConserving && c.Reserved >= 0 && name != "AllWait-Threshold" && name != "NoWait":
		return "RES-First-" + name
	default:
		return name
	}
}

// validate checks a defaulted config.
func (c Config) validate() error {
	if c.Policy == nil {
		return errors.New("core: config needs a policy")
	}
	if c.Carbon == nil {
		return errors.New("core: config needs a carbon trace")
	}
	if c.Reserved < 0 {
		return fmt.Errorf("core: reserved capacity %d must be non-negative", c.Reserved)
	}
	if err := c.Pricing.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.EvictionRate < 0 || c.EvictionRate >= 1 {
		return fmt.Errorf("core: eviction rate %v must be in [0, 1)", c.EvictionRate)
	}
	if c.SpotMaxLen < 0 {
		return fmt.Errorf("core: spot max length %v must be non-negative", c.SpotMaxLen)
	}
	if c.CheckpointInterval < 0 || c.CheckpointOverhead < 0 {
		return fmt.Errorf("core: checkpoint configuration must be non-negative")
	}
	if c.ShortMax <= 0 || c.WaitShort < 0 || c.WaitLong < 0 {
		return fmt.Errorf("core: invalid queue configuration")
	}
	for i, q := range c.Queues {
		if q.MaxWait < 0 {
			return fmt.Errorf("core: queue %d has negative wait %v", i, q.MaxWait)
		}
		if i < len(c.Queues)-1 {
			if q.MaxLength <= 0 {
				return fmt.Errorf("core: queue %d needs a positive length bound", i)
			}
			if next := c.Queues[i+1].MaxLength; next != 0 && next <= q.MaxLength {
				return fmt.Errorf("core: queue bounds must ascend (queue %d: %v >= %v)", i, q.MaxLength, next)
			}
		}
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("core: horizon %v must be positive", c.Horizon)
	}
	if c.ElasticCapacity < 0 {
		return fmt.Errorf("core: elastic capacity %d must be non-negative", c.ElasticCapacity)
	}
	if c.Mechanism > MechanismHeapEngine {
		return fmt.Errorf("core: mechanism %d must be MechanismAuto, MechanismEngine or MechanismHeapEngine", c.Mechanism)
	}
	if c.Elastic != nil && c.Elastic.ManagedCount() > 0 {
		// Managed (non-degenerate or DAG) jobs execute through the hourly
		// reallocation machinery, which owns their finish events: the
		// work-conservation waiter heap, spot eviction replans and
		// suspend-resume plan policies would all fight it for the same
		// jobs. Degenerate elastic traces engage none of it and keep every
		// combination the rigid path allows.
		if c.WorkConserving {
			return errors.New("core: elastic managed jobs cannot be work-conserving")
		}
		if c.SpotMaxLen > 0 {
			return errors.New("core: elastic managed jobs cannot route to spot capacity")
		}
		switch c.Policy.(type) {
		case policy.WaitAwhile, policy.WaitAwhileEst, policy.Ecovisor:
			return fmt.Errorf("core: plan-capable policy %s cannot drive elastic managed jobs", c.Policy.Name())
		}
	}
	return nil
}

// policyContext builds the knowledge handed to policies: per-queue maximum
// waits and historical average lengths computed from the trace. Averages
// are derived from the classification bounds directly so the shared trace
// never needs its Queue fields rewritten.
//
// Fast paths are enabled unconditionally: with the default perfect CIS
// the context answers decisions from the trace's oracle tables (shared
// across every concurrent Run over that trace), and with any other CIS
// the call is a no-op and decisions take the reference path.
func (c Config) policyContext(jobs *workload.Trace) *policy.Context {
	means := jobs.MeanLengthsByBounds(c.queueBounds())
	queues := make(map[workload.Queue]policy.QueueInfo, len(c.Queues))
	for i, spec := range c.Queues {
		q := workload.Queue(i)
		avg := means[i]
		if v, ok := c.AvgLengthOverride[q]; ok {
			avg = v
		}
		queues[q] = policy.QueueInfo{MaxWait: spec.MaxWait, AvgLength: avg}
	}
	ctx := &policy.Context{CIS: c.CIS, Queues: queues}
	ctx.EnableFastPaths()
	return ctx
}

// queueBounds returns the classification bounds for ClassifyQueues: the
// MaxLength of every queue but the last.
func (c Config) queueBounds() []simtime.Duration {
	bounds := make([]simtime.Duration, 0, len(c.Queues)-1)
	for _, q := range c.Queues[:len(c.Queues)-1] {
		bounds = append(bounds, q.MaxLength)
	}
	return bounds
}
