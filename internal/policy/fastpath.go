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
// WaitAwhile's rank buckets — and then binds only a perfect-knowledge
// service: the one case where a forecast is a pure function of (trace,
// interval), making precomputation sound. For any other CIS (noisy,
// trained forecasters) every Decide afterwards takes the reference path.
//
// Decisions are bit-identical with and without fast paths: tables are
// populated through the same Value/Integral calls the reference scans
// make, and the differential tests in this package pin that equivalence.
// The Queues map must not be mutated afterwards.
func (c *Context) EnableFastPaths() {
	c.fast, c.ftrace, c.slots = nil, nil, nil
	clear(c.ranks)
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
	if c.ranks == nil {
		c.ranks = make(map[int]hourRank)
	}
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

// hourRank is the CI-sorted ordering of hourly slots [hour, iDmax],
// computed once per arrival-hour bucket and reused by every WaitAwhile
// decision whose deadline falls inside it. Keys are (CI, index) — a
// strict total order — so filtering the superset to any shorter deadline
// preserves exactly the order a per-job stable sort would produce.
type hourRank struct {
	iDmax int
	order []int32
}

// fastWaitAwhile answers WaitAwhile from the per-hour CI rank: greedily
// take the cheapest slots up to the deadline (earliest first within equal
// CI), trim the final slot to the exact length, then emit the merged plan
// in time order. Slot boundaries, trims and merges mirror the reference
// implementation value for value.
func (c *Context) fastWaitAwhile(job workload.Job, now simtime.Time) (Decision, bool) {
	if now < 0 {
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
	order := c.rankOrder(i0, iD)

	picked := c.picked[:0]
	var total simtime.Duration
	for _, idx := range order {
		if total >= job.Length {
			break
		}
		i := int(idx)
		if i > iD {
			continue
		}
		s := simtime.Interval{Start: hourStart(i), End: hourStart(i + 1)}
		if i == i0 {
			s.Start = now
		}
		if deadline < s.End {
			s.End = deadline
		}
		if need := job.Length - total; s.Len() > need {
			s.End = s.Start.Add(need)
		}
		picked = append(picked, s)
		total += s.Len()
	}
	c.picked = picked
	sortIntervalsByStart(picked)
	return Decision{Plan: mergedCopy(picked)}, true
}

// rankOrder returns slot indices [i0, >=iD] sorted by (CI, index). A
// bucket is built, and extended when a later deadline needs more slots,
// from the trace's slot ranking: only the new slots' integer keys are
// sorted, then merged from the back into the cached order.
func (c *Context) rankOrder(i0, iD int) []int32 {
	r, ok := c.ranks[i0]
	if ok && iD <= r.iDmax {
		return r.order
	}
	if c.slots == nil {
		c.slots = c.ftrace.Oracle().Ranking()
	}
	from := i0
	if ok {
		from = r.iDmax + 1
	}
	keys := c.rankKeys[:0]
	for j := from; j <= iD; j++ {
		keys = append(keys, c.slots.Key(j))
	}
	slices.Sort(keys)
	c.rankKeys = keys

	old := len(r.order)
	order := slices.Grow(r.order, len(keys))[:old+len(keys)]
	a, b := old-1, len(keys)-1
	var ka uint64
	if a >= 0 {
		ka = c.slots.Key(int(order[a]))
	}
	for w := len(order) - 1; b >= 0; w-- {
		if a >= 0 && ka > keys[b] {
			order[w] = order[a]
			if a--; a >= 0 {
				ka = c.slots.Key(int(order[a]))
			}
		} else {
			order[w] = int32(c.slots.Slot(keys[b]))
			b--
		}
	}
	c.ranks[i0] = hourRank{iDmax: iD, order: order}
	return order
}

// sortIntervalsByStart orders a small plan by start time. Starts are
// unique (slots are disjoint), so insertion sort matches any comparison
// sort; it avoids sort.Slice's closure allocation on the hot path.
func sortIntervalsByStart(ivs []simtime.Interval) {
	for i := 1; i < len(ivs); i++ {
		iv := ivs[i]
		j := i - 1
		for j >= 0 && ivs[j].Start > iv.Start {
			ivs[j+1] = ivs[j]
			j--
		}
		ivs[j+1] = iv
	}
}

// mergedCopy is mergeAdjacent that never aliases its (scratch) input: it
// counts the coalesced runs first and returns an exact-size fresh slice —
// the single allocation a plan-producing decision keeps.
func mergedCopy(ivs []simtime.Interval) []simtime.Interval {
	if len(ivs) == 0 {
		return nil
	}
	runs := 1
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start != ivs[i-1].End {
			runs++
		}
	}
	out := make([]simtime.Interval, 0, runs)
	out = append(out, ivs[0])
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start == last.End {
			last.End = iv.End
		} else {
			out = append(out, iv)
		}
	}
	return out
}
