// Package policy implements GAIA's scheduling policies and the baselines
// the paper compares against (Table 1):
//
//	NoWait            carbon- and cost-agnostic, runs jobs on arrival
//	AllWait           cost-aware: wait for reserved capacity up to W
//	Lowest-Slot       carbon-aware, no length knowledge
//	Lowest-Window     carbon-aware, knows the queue-average length
//	Carbon-Time       carbon- and performance-aware (maximizes carbon
//	                  saving per unit completion time)
//	Wait Awhile       suspend-resume, knows the exact job length
//	Ecovisor          suspend-resume, greedy CI threshold
//
// Cost awareness (RES-First work conservation, Spot-First placement and
// the combined Spot-RES) is orthogonal to the start-time choice and lives
// in the core scheduler's configuration; see package core.
package policy

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// QueueInfo is the scheduler-configured knowledge about one job queue:
// the guaranteed maximum waiting time W and the historical average job
// length Javg that length-oblivious policies use as a coarse estimate.
type QueueInfo struct {
	MaxWait   simtime.Duration
	AvgLength simtime.Duration
}

// QueueTable builds a Context's queue table for a run over jobs under the
// queue ladder (nil means the paper's two queues): each queue's waiting
// guarantee, and as its length estimate the mean length of the jobs the
// ladder classifies into it, unless override names the queue.
func QueueTable(queues workload.QueueLadder, jobs *workload.Trace, override map[workload.Queue]simtime.Duration) map[workload.Queue]QueueInfo {
	queues = queues.OrDefault()
	means := jobs.MeanLengthsByBounds(queues.Bounds())
	table := make(map[workload.Queue]QueueInfo, len(queues))
	for i, spec := range queues {
		info := QueueInfo{MaxWait: spec.MaxWait, AvgLength: means[i]}
		if v, ok := override[workload.Queue(i)]; ok {
			info.AvgLength = v
		}
		table[workload.Queue(i)] = info
	}
	return table
}

// Context is everything a policy may consult when choosing a schedule.
// Policies must not use Job.Length unless they are declared
// length-aware (Table 1) — the simulator passes the true length in the
// job for execution purposes only.
//
// A Context also carries per-run decision state: scratch buffers reused
// across Decide calls and, after EnableFastPaths, the precomputed oracle
// tables (see carbon.Oracle). A Context must therefore not be shared by
// concurrently running simulations — each core.Run builds its own, while
// the immutable tables underneath are shared across the whole sweep.
type Context struct {
	CIS    carbon.Service
	Queues map[workload.Queue]QueueInfo

	// SlackFn, when set by the scheduler for DAG workloads, reports a
	// job's precedence slack — how long it can wait without stretching its
	// DAG's critical path (ok false for jobs outside any DAG). Only
	// DAG-aware policies (CriticalPathShift) consult it.
	SlackFn func(jobID int) (simtime.Duration, bool)

	// Oracle fast-path state (EnableFastPaths). fast is indexed by queue;
	// ftrace is the perfect-knowledge trace the tables were derived from,
	// slots its slot ranking (bound on WaitAwhile's first decision) and
	// win WaitAwhile's rolling rank window: slots [winLo, winHi] in
	// (CI, index) order.
	fast         []*carbon.QueueTables
	ftrace       *carbon.Trace
	slots        *carbon.SlotRanking
	win          []rankedSlot
	winLo, winHi int
	fastHits     int64

	// Scratch buffers reused across Decide calls on this Context. picked
	// backs the plans WaitAwhile and Ecovisor return (see Decision).
	starts   []simtime.Time
	picked   []simtime.Interval
	rankKeys []uint64
	next24   [24]float64

	// Scratch reused across Allocate calls: grants backs the grants the
	// elastic allocators return (see ElasticAllocator), cands holds
	// Greedy-Marginal's candidate replicas.
	grants []int
	cands  []marginalCand
}

// grantBuf returns the Context's grant buffer resized to n.
func (c *Context) grantBuf(n int) []int {
	if cap(c.grants) < n {
		c.grants = make([]int, n)
	}
	c.grants = c.grants[:n]
	return c.grants
}

// Queue returns the queue info, or a zero QueueInfo for unknown queues.
func (c *Context) Queue(q workload.Queue) QueueInfo { return c.Queues[q] }

// Decision is a policy's verdict for one job: either an uninterruptible
// start time (Plan nil) or a suspend-resume execution plan — a list of
// disjoint, ascending execution windows. The simulator consumes windows
// until the job's true length is done: a plan that overshoots is
// truncated, and if the windows run out first (a plan built from a length
// *estimate*) the job keeps running past the final window to completion.
// Length-exact policies (Wait Awhile) emit plans totalling exactly J, so
// they execute as given.
//
// A plan is borrowed: Plan may alias scratch storage of the Context it
// was decided on (WaitAwhile, WaitAwhile-Est and Ecovisor return theirs),
// and it is valid only until the next Decide on that Context. A caller
// that keeps a plan past that point copies it first, typically through
// NormalizePlan into storage of its own.
type Decision struct {
	Start simtime.Time
	Plan  []simtime.Interval
}

// IsPlan reports whether the decision is a suspend-resume plan.
func (d Decision) IsPlan() bool { return len(d.Plan) > 0 }

// End returns when execution completes given the job length.
func (d Decision) End(length simtime.Duration) simtime.Time {
	if d.IsPlan() {
		return d.Plan[len(d.Plan)-1].End
	}
	return d.Start.Add(length)
}

// Validate checks plan well-formedness: windows must be non-empty,
// disjoint, ascending, and not precede now. (Totals need not equal the
// job length — see Decision — but an exact-knowledge policy's plan should;
// ExactCoverage checks that stronger property.)
func (d Decision) Validate(job workload.Job, now simtime.Time) error {
	if !d.IsPlan() {
		if d.Start < now {
			return fmt.Errorf("policy: start %v before now %v", d.Start, now)
		}
		return nil
	}
	prev := now
	for i, iv := range d.Plan {
		if iv.IsEmpty() {
			return fmt.Errorf("policy: plan interval %d is empty", i)
		}
		if iv.Start < prev {
			return fmt.Errorf("policy: plan interval %d overlaps or precedes now", i)
		}
		prev = iv.End
	}
	return nil
}

// ExactCoverage reports whether the plan's windows total exactly length.
func (d Decision) ExactCoverage(length simtime.Duration) bool {
	var total simtime.Duration
	for _, iv := range d.Plan {
		total += iv.Len()
	}
	return total == length
}

// NormalizePlan fits a plan's execution windows to a job's true length
// and appends them to dst, returning the extended slice: windows are
// consumed until the length is done (truncating the last one), and if the
// windows run out first — a plan built from a length estimate — the final
// window is extended so the job runs to completion. The input plan must
// be non-empty and valid. It is only read, so a borrowed Decision.Plan
// normalized into storage the caller owns (dst = buf[:0]) outlives the
// next Decide.
func NormalizePlan(dst, plan []simtime.Interval, length simtime.Duration) []simtime.Interval {
	remaining := length
	for _, iv := range plan {
		if iv.Len() >= remaining {
			dst = append(dst, simtime.Interval{Start: iv.Start, End: iv.Start.Add(remaining)})
			remaining = 0
			break
		}
		dst = append(dst, iv)
		remaining -= iv.Len()
	}
	if remaining > 0 {
		dst[len(dst)-1].End = dst[len(dst)-1].End.Add(remaining)
	}
	return dst
}

// Policy chooses when a job runs. Implementations must return decisions
// whose (first) start lies within [now, now + W] for the job's queue.
type Policy interface {
	// Name returns the paper's name for the policy.
	Name() string
	// Decide schedules the job that arrived at now.
	Decide(job workload.Job, now simtime.Time, ctx *Context) Decision
}

// candidateStarts enumerates the start instants a slot-granular policy
// considers inside [now, now+w]: now itself plus every hourly boundary in
// (now, now+w]. The paper's policies pick among hourly CI slots; finer
// granularity would not change the objective because CI is constant within
// a slot.
func candidateStarts(now simtime.Time, w simtime.Duration) []simtime.Time {
	return appendCandidateStarts(nil, now, w)
}

// candidateStarts is the scratch-buffer variant used on the Decide hot
// path: the enumeration is identical, but the backing array is reused
// across calls so steady-state decisions allocate nothing.
func (c *Context) candidateStarts(now simtime.Time, w simtime.Duration) []simtime.Time {
	c.starts = appendCandidateStarts(c.starts[:0], now, w)
	return c.starts
}

func appendCandidateStarts(out []simtime.Time, now simtime.Time, w simtime.Duration) []simtime.Time {
	out = append(out, now)
	if w <= 0 {
		return out
	}
	latest := now.Add(w)
	// First hourly boundary strictly after now.
	b := simtime.Time((now.HourIndex() + 1) * int(simtime.Hour))
	for ; b <= latest; b = b.Add(simtime.Hour) {
		out = append(out, b)
	}
	return out
}

// estimatedLength returns the length estimate available to a
// length-oblivious policy: the queue average when configured, else one
// hour as a harmless default.
func estimatedLength(job workload.Job, ctx *Context) simtime.Duration {
	if info, ok := ctx.Queues[job.Queue]; ok && info.AvgLength > 0 {
		return info.AvgLength
	}
	return simtime.Hour
}
