package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// The direct-execution run path.
//
// In any configuration admitted by Config.directEligible the scheduler
// never feeds information back into decisions: policies see only
// (job, arrival, oracle tables), jobs run uninterrupted from their chosen
// start, and the reserved-vs-on-demand split is a pure replay of pool
// occupancy over the start/finish endpoints. That lets Run skip the event
// engine entirely:
//
//	phase 1  fan every decision across cores (par.Shards), each shard
//	         writing a job-ID-indexed start column — embarrassingly
//	         parallel (decideDirect);
//	phase 2  sort the start and finish endpoints and replay a sequential
//	         two-pointer sweep over them, reproducing the engine's pool
//	         arithmetic and folding the order-sensitive float totals in
//	         the exact finish order the engine would produce;
//	phase 3  fan the remaining order-free accounting (per-job columns,
//	         shard-private usage deltas, cost column, retained records)
//	         back across cores, then fold the deltas into the usage bins.
//
// Phase 1 is the decide phase; phases 2-3 together are the replay
// (replayDirect). The split is the seam the decision-plan cache rides
// (plan.go): decisions depend only on (policy, CIS, queue bounds and
// waits, workload), so a sweep that varies accounting knobs — reserved
// size, prices, the realized carbon trace — decides once and replays every
// cell from the shared start column.
//
// Bit-identity with the event engine rests on its fire-order guarantees
// (DESIGN.md §15): with every job length >= 1 minute, starts fire in
// (time, jobID) order, finishes fire in (time, startRank) order, and at
// any instant all finishes precede all starts. The sweep processes
// endpoints in exactly that merged order, and every float the engine
// computes is either stored per job (order-free columns) or folded here
// in replayed finish order, so results — aggregates, fingerprints and
// retained records alike — are byte-identical.

// errDirectFallback signals that a nominally eligible run must be
// re-executed on the event engine (a start-based policy dynamically
// returned a suspend-resume plan, which the sweep replay does not model).
var errDirectFallback = errors.New("core: direct path fallback")

// directRuns counts completed direct-path executions (full runs and plan
// replays alike); tests use the delta to assert which configurations ride
// the fast path.
var directRuns atomic.Int64

// directShardMin is the minimum decide-phase shard size. Figure sweeps
// already run one cell per core; keeping small cells single-shard avoids
// nested-parallelism thrash while million-job cells still fan out fully.
const directShardMin = 8192

// directWorkersOverride pins the fan-out width (test seam: differential
// tests force multi-shard execution on any machine; 0 = automatic).
var directWorkersOverride atomic.Int32

// directWorkers picks the decide fan-out width for an n-job trace.
func directWorkers(n int) int {
	if v := directWorkersOverride.Load(); v > 0 {
		return int(v)
	}
	w := n / directShardMin
	if w < 1 {
		w = 1
	}
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	return w
}

// scanShards runs a read-only validation scan over [0, n) and returns its
// error. scan(x, lo, hi) must report the failure at the lowest index of
// its range. Below two shards (directWorkers) the scan is one sequential
// call with no fan-out allocation; otherwise the ranges of par.Shards scan
// in parallel and par.ForEach returns the lowest-ranged shard's error —
// the failure a sequential scan meets first, with the same text.
func scanShards[T any](n int, x T, scan func(x T, lo, hi int) error) error {
	w := directWorkers(n)
	if w < 2 {
		return scan(x, 0, n)
	}
	return par.ForEach(w, par.Shards(w, n), func(_ int, sh par.Range) error {
		return scan(x, sh.Lo, sh.Hi)
	})
}

// runDirect executes a direct-eligible configuration: decide, then replay.
// Errors other than errDirectFallback are in their final API form.
func runDirect(ctx context.Context, cfg Config, trace *workload.Trace) (*metrics.Result, error) {
	starts, err := decideDirect(ctx, cfg, trace)
	if err != nil {
		return nil, err
	}
	return replayDirect(ctx, cfg, trace, starts, nil)
}

// decideDirect is phase 1: decide every job in parallel and return the
// start column. Shards cover disjoint job-ID ranges, so the column writes
// never contend; the oracle tables behind the fast paths are immutable and
// shared, while each worker gets its own policy.Context (scratch buffers
// are not goroutine-safe). The Queues map is read-only after construction
// and shared to avoid per-worker O(n) mean-length scans.
func decideDirect(ctx context.Context, cfg Config, trace *workload.Trace) ([]simtime.Time, error) {
	n := len(trace.Jobs)
	bounds := cfg.queueBounds()
	base := cfg.policyContext(trace)
	starts := make([]simtime.Time, n)
	done := ctx.Done()
	shards := par.Shards(directWorkers(n), n)
	if err := par.ForEach(len(shards), shards, func(_ int, sh par.Range) error {
		pctx := &policy.Context{CIS: cfg.CIS, Queues: base.Queues}
		pctx.EnableFastPaths()
		for i := sh.Lo; i < sh.Hi; i++ {
			if done != nil && (i-sh.Lo)%interruptStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: run canceled: %w", err)
				}
			}
			job := trace.Jobs[i]
			job.Queue = workload.ClassifyLength(job.Length, bounds)
			now := job.Arrival
			d := cfg.Policy.Decide(job, now, pctx)
			if err := d.Validate(job, now); err != nil {
				return fmt.Errorf("core: run failed: policy %s: %v", cfg.Policy.Name(), err)
			}
			if d.IsPlan() {
				return errDirectFallback
			}
			starts[i] = d.Start
		}
		return nil
	}); err != nil {
		if errors.Is(err, errDirectFallback) {
			return nil, errDirectFallback
		}
		return nil, err
	}
	return starts, nil
}

// directScratch is the per-replay scratch the sweep and accounting phases
// need: the two endpoint orderings, the rank-indexed start/finish/CPU
// columns, the reserved-allocation column, the counting-sort buckets and
// one usage delta per accounting shard. Replayed cells recycle it through
// directScratchPool so a warm sweep costs no per-cell endpoint or usage
// allocations.
type directScratch struct {
	startOrd, finOrd []int32
	stR, enR         []simtime.Time
	cpuR             []int32
	reservedBy       []int32
	cnt              []int32
	deltas           []metrics.UsageDelta
}

var directScratchPool = sync.Pool{New: func() any { return new(directScratch) }}

// directScratchMax caps the column size a scratch may have and still
// return to the pool. Sweep cells — the replays the pool exists for —
// run thousands of jobs; a million-job one-shot run would otherwise park
// tens of MB of dead scratch in the pool, inflating the live heap and
// skewing GC pacing for the rest of the process.
const directScratchMax = 1 << 18

// release returns the scratch to the pool, or drops an oversized one.
func (s *directScratch) release() {
	if cap(s.reservedBy) > directScratchMax {
		return
	}
	directScratchPool.Put(s)
}

// grow resizes every column to n, reusing capacity from earlier replays.
// Contents are overwritten before use (reservedBy explicitly below), so no
// clearing is needed here.
func (s *directScratch) grow(n int) {
	grow32 := func(b []int32) []int32 {
		if cap(b) < n {
			return make([]int32, n)
		}
		return b[:n]
	}
	s.startOrd = grow32(s.startOrd)
	s.finOrd = grow32(s.finOrd)
	s.cpuR = grow32(s.cpuR)
	if cap(s.stR) < n {
		s.stR = make([]simtime.Time, n)
		s.enR = make([]simtime.Time, n)
	} else {
		s.stR, s.enR = s.stR[:n], s.enR[:n]
	}
	s.growReserved(n)
}

// growReserved resizes only the reserved-allocation column — all a replay
// needs when the endpoint orderings come memoized from a plan.
func (s *directScratch) growReserved(n int) {
	if cap(s.reservedBy) < n {
		s.reservedBy = make([]int32, n)
	} else {
		s.reservedBy = s.reservedBy[:n]
	}
}

// usageDeltas returns k usage deltas Reset against acc, reusing the
// storage of earlier replays.
func (s *directScratch) usageDeltas(k int, acc *metrics.Accumulator) []metrics.UsageDelta {
	if cap(s.deltas) < k {
		s.deltas = make([]metrics.UsageDelta, k)
	}
	s.deltas = s.deltas[:k]
	for i := range s.deltas {
		s.deltas[i].Reset(acc)
	}
	return s.deltas
}

// replayOrders is the sweep phase's endpoint geometry: job IDs in start
// fire order, start ranks in finish fire order, and the rank-indexed
// start/finish/CPU columns. It is a pure function of (starts, trace), so
// every cell of a sweep replaying one plan shares identical orders; plans
// memoize the value (trace-identity keyed) and replays after the first
// skip both counting sorts. A memoized value is shared across concurrent
// replays and must never be mutated.
type replayOrders struct {
	trace            *workload.Trace
	startOrd, finOrd []int32
	stR, enR         []simtime.Time
	cpuR             []int32
}

// fill computes the orderings for (starts, o.trace) into o's columns,
// which must already have length len(starts). cnt is a reusable
// counting-sort bucket buffer.
func (o *replayOrders) fill(cnt *[]int32, starts []simtime.Time) {
	o.startOrd = timeOrderInto(o.startOrd, cnt, starts)
	for r, id := range o.startOrd {
		j := &o.trace.Jobs[id]
		o.stR[r] = starts[id]
		o.enR[r] = starts[id].Add(j.Length)
		o.cpuR[r] = int32(j.CPUs)
	}
	o.finOrd = timeOrderInto(o.finOrd, cnt, o.enR)
}

// replayDirect is phases 2-3: given the decided start column (freshly
// decided or replayed from a cached plan — the slice is treated as
// immutable either way), sweep the endpoints sequentially and fan the
// order-free accounting back out. The result is bit-identical to a full
// runDirect whose decide phase produced the same starts. A non-nil plan
// supplies (and on first use receives) the memoized endpoint orderings;
// runDirect passes nil and sorts into pooled scratch.
func replayDirect(ctx context.Context, cfg Config, trace *workload.Trace, starts []simtime.Time, plan *DecisionPlan) (*metrics.Result, error) {
	n := len(trace.Jobs)
	bounds := cfg.queueBounds()
	acc := metrics.NewAccumulator(n, cfg.Horizon)
	carbonOf := func(iv simtime.Interval, cpus int) float64 {
		return cfg.Power.Carbon(cfg.Carbon.Integral(iv), cpus)
	}
	done := ctx.Done()

	// Phase 2: sequential sweep. startOrd lists job IDs by (start, ID) —
	// the engine's start fire order; finOrd lists start ranks by
	// (finish, rank) — its finish fire order. The two-pointer merge below
	// processes, at each instant, all finishes before any start, exactly
	// as the engine's priority ordering does, replaying the reserved
	// pool's acquire/release arithmetic and folding the CPU·hour totals.
	sc := directScratchPool.Get().(*directScratch)
	defer sc.release()
	var ord *replayOrders
	if plan != nil {
		if m := plan.orders.Load(); m != nil && m.trace == trace {
			ord = m // warm sweep cell: skip both endpoint sorts
		}
	}
	if ord == nil && plan != nil {
		// First replay of this plan against this trace: compute into
		// plan-owned columns and publish (racing replays may each compute;
		// last store wins and all values are identical).
		ord = &replayOrders{
			trace:    trace,
			startOrd: make([]int32, n), finOrd: make([]int32, n),
			stR: make([]simtime.Time, n), enR: make([]simtime.Time, n),
			cpuR: make([]int32, n),
		}
		ord.fill(&sc.cnt, starts)
		plan.orders.Store(ord)
	}
	if ord == nil {
		sc.grow(n)
		ord = &replayOrders{
			trace:    trace,
			startOrd: sc.startOrd, finOrd: sc.finOrd,
			stR: sc.stR, enR: sc.enR, cpuR: sc.cpuR,
		}
		ord.fill(&sc.cnt, starts)
	} else {
		sc.growReserved(n)
	}
	startOrd, finOrd := ord.startOrd, ord.finOrd
	stR, enR, cpuR := ord.stR, ord.enR, ord.cpuR
	if n > 0 {
		acc.GrowUsage(enR[finOrd[n-1]])
	}
	reservedBy := sc.reservedBy // indexed by job ID
	idle := cfg.Reserved
	si := 0
	for fi := 0; fi < n; fi++ {
		if done != nil && fi%interruptStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: run canceled: %w", err)
			}
		}
		r := int(finOrd[fi])
		for si < n && stR[si] < enR[r] {
			res := int(cpuR[si])
			if res > idle {
				res = idle
			}
			idle -= res
			reservedBy[startOrd[si]] = int32(res)
			si++
		}
		res := int(reservedBy[startOrd[r]])
		idle += res
		hours := simtime.Interval{Start: stR[r], End: enR[r]}.Len().Hours()
		var h [3]float64
		h[cloud.Reserved] = float64(res) * hours
		h[cloud.OnDemand] = float64(int(cpuR[r])-res) * hours
		h[cloud.Spot] = float64(0) * hours
		acc.AddCPUHours(h)
	}

	// Phase 3: order-free accounting back in parallel — per-job columns,
	// the cost column and retained records are ID-indexed, and each shard
	// bins usage into its own difference-encoded delta (O(1) per job),
	// folded into the pre-grown bins after the fan-out; integer addition
	// commutes, so the fold order is free. The per-job carbon and baseline
	// integrals live here rather than in the decide phase because they are
	// accounting (they read the realized carbon trace and power model), so
	// a replayed cell computes them under its own knobs.
	var results []metrics.JobResult
	var segs []metrics.Segment
	if cfg.RetainJobs {
		results = make([]metrics.JobResult, n)
		// Every direct-path job runs in one uninterrupted segment; carving
		// the per-job slices from one slab instead of a million one-element
		// allocations keeps retained runs off the GC's back (the records
		// compare equal either way — the differentials check values).
		segs = make([]metrics.Segment, n)
	}
	odRate, spotRate := cfg.Pricing.HourlyRate(cloud.OnDemand), cfg.Pricing.HourlyRate(cloud.Spot)
	shards := par.Shards(directWorkers(n), n)
	deltas := sc.usageDeltas(len(shards), acc)
	account := func(k int, sh par.Range) error {
		usage := &deltas[k]
		for i := sh.Lo; i < sh.Hi; i++ {
			if done != nil && (i-sh.Lo)%interruptStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: run canceled: %w", err)
				}
			}
			job := &trace.Jobs[i]
			q := workload.ClassifyLength(job.Length, bounds)
			iv := simtime.Interval{Start: starts[i], End: starts[i].Add(job.Length)}
			carbon := carbonOf(iv, job.CPUs)
			baseline := carbonOf(simtime.Interval{Start: job.Arrival, End: job.Arrival.Add(job.Length)}, job.CPUs)
			// Waiting is finish - arrival - length, which the integer time
			// model reduces to start - arrival exactly.
			acc.PutJob(i, iv.Start.Sub(job.Arrival), job.Length, carbon, baseline, q)
			res := int(reservedBy[i])
			od := job.CPUs - res
			hours := iv.Len().Hours()
			cost := (float64(od)*odRate + float64(0)*spotRate) * hours
			acc.PutCost(i, cost)
			usage.Add(iv, res, od, 0)
			if results != nil {
				var h [3]float64
				h[cloud.Reserved] = float64(res) * hours
				h[cloud.OnDemand] = float64(od) * hours
				h[cloud.Spot] = float64(0) * hours
				segs[i] = metrics.Segment{Interval: iv, Reserved: res, OnDemand: od}
				results[i] = metrics.JobResult{
					JobID:          i,
					Queue:          q,
					User:           job.User,
					CPUs:           job.CPUs,
					Length:         job.Length,
					Arrival:        job.Arrival,
					Start:          iv.Start,
					Finish:         iv.End,
					Waiting:        iv.End.Sub(job.Arrival) - job.Length,
					Carbon:         carbon,
					BaselineCarbon: baseline,
					UsageCost:      cost,
					CPUHours:       h,
					Segments:       segs[i : i+1 : i+1],
				}
			}
		}
		return nil
	}
	if len(shards) == 1 {
		// Replayed sweep cells are the hot caller (one cell per core
		// already); skipping the worker pool keeps them allocation-light.
		if err := account(0, shards[0]); err != nil {
			return nil, err
		}
	} else if err := par.ForEach(len(shards), shards, account); err != nil {
		return nil, err
	}
	for k := range deltas {
		acc.AddUsageDelta(&deltas[k])
	}

	directRuns.Add(1)
	res := &metrics.Result{
		Label:    cfg.Label,
		Region:   cfg.Carbon.Region(),
		Workload: trace.Name,
		Reserved: cfg.Reserved,
		Horizon:  cfg.Horizon,
		Pricing:  cfg.Pricing,
		Jobs:     results,
	}
	res.AttachAccumulator(acc)
	return res, nil
}

// timeOrder returns 0..len(keys)-1 stably sorted ascending by key; see
// timeOrderInto for the algorithm.
func timeOrder(keys []simtime.Time) []int32 {
	return timeOrderInto(make([]int32, len(keys)), new([]int32), keys)
}

// timeOrderInto fills ord (len(ord) == len(keys)) with 0..len(keys)-1
// stably sorted ascending by key: a counting sort when the key range is
// comparable to n (simulation endpoints cluster into at most a horizon's
// worth of minutes), a stdlib stable sort otherwise. Both are stable, so
// ties keep input order — exactly the (time, index) lexicographic order
// the sweep needs. cnt is the reusable counting-bucket buffer (resliced
// and cleared here, grown when a wider key span needs it).
func timeOrderInto(ord []int32, cnt *[]int32, keys []simtime.Time) []int32 {
	n := len(keys)
	ord = ord[:n]
	for i := range ord {
		ord[i] = int32(i)
	}
	if n < 2 {
		return ord
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	span := int64(hi-lo) + 1
	if span <= int64(8*n) || span <= 1<<16 {
		want := int(span) + 1
		if cap(*cnt) < want {
			*cnt = make([]int32, want)
		} else {
			*cnt = (*cnt)[:want]
			clear(*cnt)
		}
		buckets := *cnt
		for _, k := range keys {
			buckets[int64(k-lo)+1]++
		}
		for b := 1; b < len(buckets); b++ {
			buckets[b] += buckets[b-1]
		}
		for i, k := range keys {
			b := int64(k - lo)
			ord[buckets[b]] = int32(i)
			buckets[b]++
		}
		return ord
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return keys[ord[a]] < keys[ord[b]]
	})
	return ord
}
