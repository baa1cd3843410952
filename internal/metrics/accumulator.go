package metrics

import (
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Accumulator is the streaming metrics sink the scheduler feeds as jobs
// execute. It keeps, instead of per-job records:
//
//   - compact columnar (SoA) arrays indexed by job ID — waiting, length,
//     carbon, baseline carbon, usage cost, queue tag — the exact inputs of
//     the percentile, CDF and total queries, stored in ID order so every
//     derived float64 sum runs in the same deterministic order as a scan
//     over retained JobResult records and is bit-identical to it;
//   - fused scalar totals folded in as each job finishes (CPU·hours by
//     option, eviction counts, wasted work);
//   - hourly usage bins in integer minute-CPU units, an online replacement
//     for replaying every execution segment (UsageSeries): per-hour sums
//     of small integers are exact in float64, so the binned series equals
//     the segment replay bit for bit.
//
// At ~41 bytes per job this is what lets one binary serve million-job
// traces; full JobResult retention (~230 bytes per job plus segment
// slices) stays available behind core's RetainJobs flag.
//
// The columns other than cost are a schedule's alone (ScheduleColumns),
// so accumulators of runs that share a schedule may share them
// (NewAccumulatorOver); the cost column, totals and usage bins are always
// the accumulator's own.
type Accumulator struct {
	sched ScheduleColumns
	costs []float64

	cpuHours       [3]float64
	evictions      int
	wastedCPUHours float64

	// usage[option][hour] holds CPU·minutes of allocation in that hour.
	// The bins grow on demand past the initial horizon so execution
	// spilling over the accounting horizon is never silently dropped.
	usage [3][]int64
}

// ScheduleColumns are the per-job columns a schedule alone determines:
// waiting, length, carbon, baseline carbon and queue tag, indexed by job
// ID. They read the start times, the workload, the realized carbon trace,
// the power model and the queue bounds — never reserved capacity, prices
// or the horizon — so every cell of a reserved-capacity or price sweep
// over one schedule computes the same values. Columns handed out by
// Schedule are shared: nothing writes them afterwards.
type ScheduleColumns struct {
	waitings  []simtime.Duration
	lengths   []simtime.Duration
	carbons   []float64
	baselines []float64
	queues    []uint8
}

func newScheduleColumns(n int) ScheduleColumns {
	return ScheduleColumns{
		waitings:  make([]simtime.Duration, n),
		lengths:   make([]simtime.Duration, n),
		carbons:   make([]float64, n),
		baselines: make([]float64, n),
		queues:    make([]uint8, n),
	}
}

// NewAccumulator sizes the columns for a trace of n jobs (IDs 0..n-1) and
// the usage bins for the given accounting horizon.
func NewAccumulator(n int, horizon simtime.Duration) *Accumulator {
	return NewAccumulatorOver(newScheduleColumns(n), horizon)
}

// NewAccumulatorOver returns an accumulator over existing schedule
// columns — another accumulator's Schedule — with a fresh cost column and
// usage bins for the given horizon. The columns stay shared, so callers
// fill only what the new accumulator owns (PutCost, AddCPUHours,
// UsageDelta), never AddJob or PutJob.
func NewAccumulatorOver(cols ScheduleColumns, horizon simtime.Duration) *Accumulator {
	a := &Accumulator{sched: cols, costs: make([]float64, len(cols.waitings))}
	slots := int(horizon / simtime.Hour)
	if slots < 0 {
		slots = 0
	}
	for o := range a.usage {
		a.usage[o] = make([]int64, slots)
	}
	return a
}

// Schedule returns a's schedule columns for other accumulators to share
// (NewAccumulatorOver). From this call on, a's producer must not write
// them again.
func (a *Accumulator) Schedule() ScheduleColumns { return a.sched }

// JobCount returns the number of jobs the columns cover.
func (a *Accumulator) JobCount() int { return len(a.sched.waitings) }

// MemBytes returns the bytes a's columns and usage bins occupy: their
// capacities, which exceed their lengths while AddUsage is growing the
// bins (a finished run trims them with GrowUsage), and schedule columns
// shared with other accumulators included.
func (a *Accumulator) MemBytes() int {
	s := &a.sched
	n := 8*(cap(s.waitings)+cap(s.lengths)+cap(s.carbons)+cap(s.baselines)+cap(a.costs)) + cap(s.queues)
	for _, u := range a.usage {
		n += 8 * cap(u)
	}
	return n
}

// AddJob folds one finished job's record into the columns and totals. It
// must be called exactly once per job, with rec.JobID in [0, n).
func (a *Accumulator) AddJob(rec *JobResult) {
	i := rec.JobID
	a.sched.waitings[i] = rec.Waiting
	a.sched.lengths[i] = rec.Length
	a.sched.carbons[i] = rec.Carbon
	a.sched.baselines[i] = rec.BaselineCarbon
	a.costs[i] = rec.UsageCost
	a.sched.queues[i] = uint8(rec.Queue)
	for o := range a.cpuHours {
		a.cpuHours[o] += rec.CPUHours[o]
	}
	a.evictions += rec.Evictions
	a.wastedCPUHours += rec.WastedCPUHours
}

// The sharded-fill API below decomposes AddJob for producers that compute
// per-job metrics out of finish order (core's direct-execution run path):
// PutJob and PutCost write the order-free ID-indexed columns, AddCPUHours
// folds the order-sensitive float totals, and UsageDelta bins usage in
// shard-private columns that AddUsageDelta folds in afterwards. Splitting
// the fold out is what makes the decomposition exact: every float64 the
// accumulator ever sums across jobs is either stored per job (columns —
// summation order fixed at query time) or folded here by the caller in the
// engine's finish order, and usage is integer arithmetic, so a sharded
// fill is bit-identical to a sequential AddJob stream. The remaining
// totals (evictions, wasted work) are only ever incremented by zero in the
// configurations that shard (no spot, no evictions), so skipping them
// changes nothing.

// PutJob writes job i's order-free columns. Concurrent callers are safe
// iff they cover disjoint job IDs; each ID must be written exactly once.
func (a *Accumulator) PutJob(i int, waiting, length simtime.Duration, carbon, baseline float64, q workload.Queue) {
	a.sched.waitings[i] = waiting
	a.sched.lengths[i] = length
	a.sched.carbons[i] = carbon
	a.sched.baselines[i] = baseline
	a.sched.queues[i] = uint8(q)
}

// PutCost writes job i's usage-cost column under the same disjoint-ID
// contract as PutJob.
func (a *Accumulator) PutCost(i int, cost float64) { a.costs[i] = cost }

// AddCPUHours folds one job's per-option CPU·hours into the running
// totals. Float addition is order-sensitive, so callers must invoke this
// sequentially in the exact finish order the event engine would produce.
func (a *Accumulator) AddCPUHours(h [3]float64) {
	for o := range a.cpuHours {
		a.cpuHours[o] += h[o]
	}
}

// GrowUsage sizes the usage bins to cover an execution ending at end, by
// AddUsage's growth rule, and leaves them no spare capacity. A pre-grown
// accumulator is thus indistinguishable from one grown incrementally to
// the same maximum, and bins that grew by AddUsage's appends shrink to
// their length, so a finished run is charged (MemBytes) only what it
// holds. It never shrinks the bins' length: GrowUsage(0) only trims. A
// UsageDelta covers the bins its accumulator had at Reset, so callers
// pre-grow with the latest end they will bin before resetting deltas.
func (a *Accumulator) GrowUsage(end simtime.Time) {
	need := len(a.usage[0])
	if e := int64(end); e > 0 {
		need = max(need, int((e-1)/60)+1)
	}
	for o, bins := range a.usage {
		if len(bins) != need || cap(bins) != need {
			a.usage[o] = make([]int64, need)
			copy(a.usage[o], bins)
		}
	}
}

// UsageDelta is a shard-private, difference-encoded copy of an
// accumulator's usage bins: AddUsage's result at O(1) per interval instead
// of one update per hour spanned, and with no sharing between shards.
//
// Usage of u units over [s, e) is u·(F(e) − F(s)) per hour h, where
// F(t)[h] = clamp(t − 60h, 0, 60) is the overlap of [0, t) with hour h.
// Relative to the constant 60, F(t) is 0 before hour q = t/60, r − 60 at
// hour q (r = t%60) and −60 after it, so its first differences are r − 60
// at hour q and −r at hour q+1. Each endpoint with weight w (−u at the
// start, +u at the finish) therefore adds w·(r−60) at q and −w·r at q+1;
// the constant 60·w every endpoint contributes cancels within the job.
// AddUsageDelta's prefix sum turns the differences back into bins. Every
// step is integer arithmetic, so the folded bins equal AddUsage's exactly.
type UsageDelta struct {
	buf []int64
	// d[o] is option o's difference column: one slot per usage bin, plus
	// two that keep the closing differences of an interval ending in the
	// last bin in range (they fall past every bin the fold covers).
	d [3][]int64
}

// Reset zeroes the delta and sizes it to a's current usage bins, reusing
// the delta's storage when it is large enough.
func (u *UsageDelta) Reset(a *Accumulator) {
	stride := len(a.usage[0]) + 2
	if cap(u.buf) < 3*stride {
		u.buf = make([]int64, 3*stride)
	} else {
		u.buf = u.buf[:3*stride]
		clear(u.buf)
	}
	for o := range u.d {
		u.d[o] = u.buf[o*stride : (o+1)*stride : (o+1)*stride]
	}
}

// Add is AddUsage into the delta. An interval reaching past the bins the
// delta was Reset to panics rather than silently dropping usage: a delta
// cannot grow the accumulator's bins.
func (u *UsageDelta) Add(iv simtime.Interval, reserved, onDemand, spot int) {
	s, e := int64(iv.Start), int64(iv.End)
	if s < 0 {
		s = 0
	}
	if s >= e {
		return
	}
	if bins := int64(len(u.d[0]) - 2); e > bins*60 {
		panic("metrics: UsageDelta.Add past the accumulator's usage bins")
	}
	var byOption [3]int
	byOption[cloud.Reserved] = reserved
	byOption[cloud.OnDemand] = onDemand
	byOption[cloud.Spot] = spot
	sq, sr := s/60, s%60
	eq, er := e/60, e%60
	for o, units := range byOption {
		if units == 0 {
			continue
		}
		w, col := int64(units), u.d[o]
		col[sq] -= w * (sr - 60)
		col[sq+1] += w * sr
		col[eq] += w * (er - 60)
		col[eq+1] -= w * er
	}
}

// AddUsageDelta folds a delta into a's usage bins with one prefix-sum pass
// per option. Folds commute (integer addition), so shards may merge in any
// order. The delta must have been Reset against a: bins a grew since are
// past every interval the delta could hold, so their share is zero.
func (a *Accumulator) AddUsageDelta(u *UsageDelta) {
	for o, col := range u.d {
		n := len(col) - 2
		if n > len(a.usage[o]) {
			panic("metrics: UsageDelta folded into an accumulator with fewer usage bins")
		}
		bins := a.usage[o][:n]
		var run int64
		for h := range bins {
			run += col[h]
			bins[h] += run
		}
	}
}

// AddUsage bins one execution interval's allocation per purchase option —
// the streaming equivalent of appending a Segment. Units are CPU·minutes,
// so the hourly mean is an exact integer division by 60 at query time.
func (a *Accumulator) AddUsage(iv simtime.Interval, reserved, onDemand, spot int) {
	s, e := int64(iv.Start), int64(iv.End)
	if s < 0 {
		s = 0
	}
	if s >= e {
		return
	}
	lastHour := int((e - 1) / 60)
	if need := lastHour + 1; need > len(a.usage[0]) {
		for o := range a.usage {
			a.usage[o] = append(a.usage[o], make([]int64, need-len(a.usage[o]))...)
		}
	}
	var byOption [3]int
	byOption[cloud.Reserved] = reserved
	byOption[cloud.OnDemand] = onDemand
	byOption[cloud.Spot] = spot
	for o, units := range byOption {
		if units == 0 {
			continue
		}
		for h := int(s / 60); h <= lastHour; h++ {
			lo, hi := int64(h)*60, int64(h+1)*60
			if lo < s {
				lo = s
			}
			if hi > e {
				hi = e
			}
			a.usage[o][h] += int64(units) * (hi - lo)
		}
	}
}

// Queue returns job i's queue tag.
func (a *Accumulator) Queue(i int) workload.Queue { return workload.Queue(a.sched.queues[i]) }

// JobCarbon returns job i's carbon and baseline carbon.
func (a *Accumulator) JobCarbon(i int) (carbon, baseline float64) {
	return a.sched.carbons[i], a.sched.baselines[i]
}
