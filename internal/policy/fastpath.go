package policy

import (
	"slices"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// EnableFastPaths binds the slot-granular policies (Lowest-Slot,
// Lowest-Window, Carbon-Time) and WaitAwhile to the precomputed oracle
// tables of the Context's current CIS (see carbon.Oracle). It first drops
// whatever an earlier call bound — tables, trace, slot ranking and
// WaitAwhile's rank window — and then binds only a perfect-knowledge
// service: the one case where a forecast is a pure function of (trace,
// interval), making precomputation sound. For any other CIS (noisy,
// trained forecasters) every Decide afterwards takes the reference path.
//
// Decisions are bit-identical with and without fast paths: tables are
// populated through the same Value/Integral calls the reference scans
// make, and the differential tests in this package pin that equivalence.
// The Queues map must not be mutated afterwards.
func (c *Context) EnableFastPaths() {
	c.fast, c.ftrace, c.slots, c.win = nil, nil, nil, c.win[:0]
	ps, ok := c.CIS.(*carbon.PerfectService)
	if !ok {
		return
	}
	tr := ps.Trace()
	maxQ := -1
	for q := range c.Queues {
		if int(q) > maxQ {
			maxQ = int(q)
		}
	}
	o := tr.Oracle()
	fast := make([]*carbon.QueueTables, maxQ+1)
	for q, info := range c.Queues {
		if int(q) < 0 {
			continue
		}
		l := info.AvgLength
		if l <= 0 {
			l = simtime.Hour // estimatedLength's fallback
		}
		fast[q] = o.Queue(info.MaxWait, l)
	}
	c.ftrace = tr
	c.fast = fast
}

// FastPathHits returns how many decisions were answered from the oracle
// tables; tests use it to prove the fast path actually ran.
func (c *Context) FastPathHits() int64 { return c.fastHits }

// fastTab returns the job queue's oracle tables, or nil when fast paths
// are disabled or the queue has none.
func (c *Context) fastTab(q workload.Queue) *carbon.QueueTables {
	if int(q) >= 0 && int(q) < len(c.fast) {
		return c.fast[q]
	}
	return nil
}

// hourStart is the first minute of hourly slot j.
func hourStart(j int) simtime.Time {
	return simtime.Time(simtime.Duration(j) * simtime.Hour)
}

// fastLowestSlot answers Lowest-Slot from the tables: the leftmost argmin
// over candidate slots [i0, i0+k] is precomputed, and candidate i0 maps
// to the minute-precise start `now` just as in the reference scan.
func (c *Context) fastLowestSlot(t *carbon.QueueTables, now simtime.Time) (Decision, bool) {
	if now < 0 {
		return Decision{}, false
	}
	k, ok := t.Boundaries(now)
	if !ok {
		return Decision{}, false
	}
	i0 := now.HourIndex()
	j, ok := t.LowestSlot(i0, k)
	if !ok {
		return Decision{}, false
	}
	c.fastHits++
	if j == i0 {
		return Decision{Start: now}, true
	}
	return Decision{Start: hourStart(j)}, true
}

// fastLowestWindow answers Lowest-Window: the boundary-slot argmin of the
// precomputed G_L window array, compared against the minute-precise
// baseline window starting at now — the same two floats the reference
// compares, in the same strict-< order.
func (c *Context) fastLowestWindow(t *carbon.QueueTables, now simtime.Time) (Decision, bool) {
	if now < 0 {
		return Decision{}, false
	}
	k, ok := t.Boundaries(now)
	if !ok {
		return Decision{}, false
	}
	i0 := now.HourIndex()
	if !t.Covers(i0, k) {
		return Decision{}, false
	}
	c.fastHits++
	if k < 1 {
		return Decision{Start: now}, true
	}
	j, _ := t.LowestWindow(i0, k)
	est := t.EstLength()
	baseline := t.Integral(simtime.Interval{Start: now, End: now.Add(est)})
	if t.WindowSum(j) < baseline {
		return Decision{Start: hourStart(j)}, true
	}
	return Decision{Start: now}, true
}

// fastCarbonTime answers Carbon-Time. The CST objective depends on the
// arrival minute (both the baseline window and every completion time
// shift with it), so the boundary candidates cannot collapse into a
// static argmin table; instead the scan reads the precomputed G_L values
// — no Integral calls, no allocations — reproducing the reference's
// arithmetic term for term: same saving subtraction, same completion
// division, same strict-> comparison against a best initialized to 0.
func (c *Context) fastCarbonTime(t *carbon.QueueTables, now simtime.Time) (Decision, bool) {
	if now < 0 {
		return Decision{}, false
	}
	k, ok := t.Boundaries(now)
	if !ok {
		return Decision{}, false
	}
	i0 := now.HourIndex()
	if !t.Covers(i0, k) {
		return Decision{}, false
	}
	c.fastHits++
	est := t.EstLength()
	baseline := t.Integral(simtime.Interval{Start: now, End: now.Add(est)})
	best := now
	bestCST := 0.0
	for j := i0 + 1; j <= i0+k; j++ {
		saving := baseline - t.WindowSum(j)
		if saving <= 0 {
			continue
		}
		s := hourStart(j)
		completion := s.Add(est).Sub(now).Hours()
		if completion <= 0 {
			continue
		}
		if cst := saving / completion; cst > bestCST {
			best, bestCST = s, cst
		}
	}
	return Decision{Start: best}, true
}

// rankedSlot is one entry of WaitAwhile's rank window: a slot and its
// SlotRanking key, kept together so neither the walk nor the merge looks
// one up from the other.
type rankedSlot struct {
	key  uint64
	slot int32
}

// fastWaitAwhile answers WaitAwhile from the rolling rank window. It walks
// the slots of [i0, iD] cheapest first (earliest first within equal CI)
// only as far as the threshold slot, the one that completes the length,
// and then writes the plan in time order: every slot ranked before the
// threshold whole, the threshold slot trimmed to what is still needed,
// touching windows merged as they are written. Slot boundaries, trims and
// merges mirror the reference implementation value for value. The plan is
// the Context's scratch (see Decision).
func (c *Context) fastWaitAwhile(job workload.Job, now simtime.Time) (Decision, bool) {
	if now < 0 || job.Length <= 0 {
		return Decision{}, false
	}
	w := c.Queue(job.Queue).MaxWait
	if w < 0 {
		return Decision{}, false
	}
	deadline := now.Add(job.Length + w)
	if deadline <= now {
		return Decision{}, false
	}
	c.fastHits++
	i0 := now.HourIndex()
	iD := (deadline - 1).HourIndex()

	// [i0, iD] holds length + w >= length minutes, so the walk always
	// reaches a threshold.
	var total, need simtime.Duration
	var thKey uint64
	th, first, last := -1, iD, i0
	for _, r := range c.rankWindow(i0, iD) {
		i := int(r.slot)
		if i > iD {
			continue
		}
		first, last = min(first, i), max(last, i)
		l := waitSlot(i, now, deadline).Len()
		if total+l >= job.Length {
			th, thKey, need = i, r.key, job.Length-total
			break
		}
		total += l
	}

	plan := c.picked[:0]
	for i := first; i <= last; i++ {
		var iv simtime.Interval
		switch {
		case i == th:
			// Trim: CI is constant within the slot, so the earliest
			// portion minimizes completion time.
			iv = waitSlot(i, now, deadline)
			iv.End = iv.Start.Add(need)
		case c.slots.Key(i) < thKey:
			iv = waitSlot(i, now, deadline)
		default:
			continue
		}
		plan = appendWindow(plan, iv)
	}
	c.picked = plan
	return Decision{Plan: plan}, true
}

// waitSlot is hourly slot i of a WaitAwhile window [now, deadline); the
// first and last slots may be partial.
func waitSlot(i int, now, deadline simtime.Time) simtime.Interval {
	s := simtime.Interval{Start: hourStart(i), End: hourStart(i + 1)}
	if s.Start < now {
		s.Start = now
	}
	if deadline < s.End {
		s.End = deadline
	}
	return s
}

// rankWindow returns the rank window after moving it to [i0, >=iD]. An
// arrival hour past the window's start drops the slots before it in
// place, keeping their order; an arrival before the window or past its
// end empties it. A deadline past the window's end then extends it
// through extendWindow, which also builds an emptied window.
func (c *Context) rankWindow(i0, iD int) []rankedSlot {
	switch {
	case len(c.win) == 0 || i0 < c.winLo || i0 > c.winHi:
		c.win, c.winLo, c.winHi = c.win[:0], i0, i0-1
	case i0 > c.winLo:
		kept := c.win[:0]
		for _, r := range c.win {
			if int(r.slot) >= i0 {
				kept = append(kept, r)
			}
		}
		c.win, c.winLo = kept, i0
	}
	if iD > c.winHi {
		c.extendWindow(iD)
	}
	return c.win
}

// extendWindow adds slots (winHi, iD] to the rank window: only the new
// slots' integer keys are sorted, then merged from the back into the
// window's order.
func (c *Context) extendWindow(iD int) {
	if c.slots == nil {
		c.slots = c.ftrace.Oracle().Ranking()
	}
	keys := c.rankKeys[:0]
	for j := c.winHi + 1; j <= iD; j++ {
		keys = append(keys, c.slots.Key(j))
	}
	slices.Sort(keys)
	c.rankKeys = keys

	old := len(c.win)
	win := slices.Grow(c.win, len(keys))[:old+len(keys)]
	a, b := old-1, len(keys)-1
	for w := len(win) - 1; b >= 0; w-- {
		if a >= 0 && win[a].key > keys[b] {
			win[w] = win[a]
			a--
		} else {
			win[w] = rankedSlot{key: keys[b], slot: int32(c.slots.Slot(keys[b]))}
			b--
		}
	}
	c.win, c.winHi = win, iD
}

// appendWindow appends iv to an ascending plan, extending the last window
// instead when iv starts where it ends.
func appendWindow(plan []simtime.Interval, iv simtime.Interval) []simtime.Interval {
	if n := len(plan); n > 0 && plan[n-1].End == iv.Start {
		plan[n-1].End = iv.End
		return plan
	}
	return append(plan, iv)
}
