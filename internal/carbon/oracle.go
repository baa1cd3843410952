package carbon

import (
	"slices"
	"sync"

	"github.com/carbonsched/gaia/internal/simtime"
)

// Oracle holds derived decision tables for one trace. Policies answer
// "where is the lowest-CI slot/window inside [now, now+W]?" in O(1) from
// these tables instead of re-scanning W forecast queries per job. Tables
// are built lazily, once per (W, L) pair, as is the one slot ranking
// WaitAwhile orders its windows by, and memoized with the trace, so a
// 30-cell sweep over one trace shares a single table set the same way it
// shares the immutable trace itself. The (W, L) memo holds at most
// maxQueueTables table sets (see Queue).
//
// All table entries are computed through the very same Trace.Value and
// Trace.Integral calls the reference policy implementations make, so
// consulting a table yields bit-identical floats — and therefore
// bit-identical decisions — to a fresh scan.
type Oracle struct {
	trace  *Trace
	mu     sync.Mutex
	queues map[oracleKey]*QueueTables

	rankOnce sync.Once
	ranking  *SlotRanking
}

type oracleKey struct {
	w, l simtime.Duration
}

// Oracle returns the trace's decision-table cache, creating it on first
// use. Safe for concurrent callers; all of them observe the same Oracle.
func (tr *Trace) Oracle() *Oracle {
	if o := tr.oracle.Load(); o != nil {
		return o
	}
	o := &Oracle{trace: tr, queues: make(map[oracleKey]*QueueTables)}
	if tr.oracle.CompareAndSwap(nil, o) {
		return o
	}
	return tr.oracle.Load()
}

// maxQueueTables bounds the (W, L) memo. L is a workload's mean queue
// length, and gaia-serve's advise endpoints take W and L from the client,
// so the keys one long-lived trace sees are unbounded. At the bound the
// memo is cleared; callers already holding tables keep them, and a key
// asked for again is rebuilt bit-identically. The figure suites use at
// most 29 table sets per trace, so they never reach it.
const maxQueueTables = 64

// Queue returns the tables for a queue with maximum wait w and length
// estimate l, building them on first request. It returns nil for
// configurations the tables cannot represent (negative wait or
// non-positive estimate). Safe for concurrent callers.
func (o *Oracle) Queue(w, l simtime.Duration) *QueueTables {
	if w < 0 || l <= 0 {
		return nil
	}
	key := oracleKey{w: w, l: l}
	o.mu.Lock()
	defer o.mu.Unlock()
	if t := o.queues[key]; t != nil {
		return t
	}
	if len(o.queues) >= maxQueueTables {
		clear(o.queues)
	}
	t := newQueueTables(o.trace, w, l)
	o.queues[key] = t
	return t
}

// Ranking returns the trace's slot ranking, building it on first request.
// Safe for concurrent callers; all of them observe the same ranking.
func (o *Oracle) Ranking() *SlotRanking {
	o.rankOnce.Do(func() { o.ranking = newSlotRanking(o.trace.values) })
	return o.ranking
}

// SlotRanking orders every hourly slot j >= 0 — the trace's own and the
// clamped ones past its horizon — by the strict total order (CI, slot
// index): the order in which a stable sort by CI lists any window's
// slots. It turns that float comparison into integer keys, so a caller
// ranks a window's slots by sorting their keys.
//
// A slot past the horizon has the last slot's CI and a larger index than
// every slot of the trace, so it follows exactly the trace's slots with
// CI ≤ that value, and precedes the rest. The keys place those first
// atOrBelowLast ranks below every past-horizon key and the remaining
// ranks above all of them.
type SlotRanking struct {
	rank []int32 // rank[i]: position of trace slot i in the order
	slot []int32 // slot[r]: the trace slot at position r (rank's inverse)
	// atOrBelowLast counts the trace's slots with CI ≤ its last slot's CI.
	atOrBelowLast int
}

// pastHorizonKeys is the offset that lifts the ranks above the last
// slot's CI past every past-horizon key. Hour indices of int64 minutes
// stay below 2^58, so no key reaches it from below or overflows above.
const pastHorizonKeys = 1 << 62

func newSlotRanking(values []float64) *SlotRanking {
	n := len(values)
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = int32(i)
	}
	slices.SortFunc(slot, func(a, b int32) int {
		if va, vb := values[a], values[b]; va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	rank := make([]int32, n)
	for r, i := range slot {
		rank[i] = int32(r)
	}
	last := values[n-1]
	c := 0
	for _, v := range values {
		if v <= last {
			c++
		}
	}
	return &SlotRanking{rank: rank, slot: slot, atOrBelowLast: c}
}

// Key returns slot j's key (j >= 0): Key(a) < Key(b) exactly when slot a
// precedes slot b in the (CI, index) order.
func (r *SlotRanking) Key(j int) uint64 {
	n := len(r.rank)
	if j >= n {
		return uint64(r.atOrBelowLast + (j - n))
	}
	k := uint64(r.rank[j])
	if k >= uint64(r.atOrBelowLast) {
		k += pastHorizonKeys
	}
	return k
}

// Slot inverts Key.
func (r *SlotRanking) Slot(key uint64) int {
	c := uint64(r.atOrBelowLast)
	switch {
	case key < c:
		return int(r.slot[key])
	case key >= pastHorizonKeys:
		return int(r.slot[key-pastHorizonKeys])
	default:
		return len(r.rank) + int(key-c)
	}
}

// QueueTables are the precomputed per-(W, L) decision tables.
//
// A job arriving at minute `now` inside hourly slot i0 = now.HourIndex()
// considers the candidate starts {now} ∪ {hourly boundaries in
// (now, now+W]}; the number of boundaries is k = (now%60 + W) / 60, which
// is either k0 = W/60 or k0+1 depending on the arrival minute. The tables
// therefore hold, for both window widths, the leftmost index of the
// minimum over every window position:
//
//	vals[i]    = Trace.Value(i)                     (slot CI)
//	winSums[i] = Trace.Integral([i·1h, i·1h + L))   (the G_L window array)
//	slotMin[d] = sliding argmin of vals over k0+1+d consecutive slots
//	winMin[d]  = sliding argmin of winSums over k0+d consecutive slots
//
// Arrays extend k0+2 slots past the trace horizon — computed through the
// same clamped Value/Integral calls as any direct query — so jobs
// arriving in the final hours still answer from the tables. The argmin
// pairs are built on first use: only Lowest-Slot and Lowest-Window read
// them, while Carbon-Time and WaitAwhile scan vals and winSums themselves.
type QueueTables struct {
	trace   *Trace
	w, l    simtime.Duration
	k0      int
	vals    []float64
	winSums []float64

	slotOnce, winOnce sync.Once
	slotMin           [2][]int32
	winMin            [2][]int32
}

func newQueueTables(tr *Trace, w, l simtime.Duration) *QueueTables {
	k0 := int(w / simtime.Hour)
	size := tr.Len() + k0 + 2
	vals := make([]float64, size)
	winSums := make([]float64, size)
	for i := 0; i < size; i++ {
		vals[i] = tr.Value(i)
		start := simtime.Time(simtime.Duration(i) * simtime.Hour)
		winSums[i] = tr.Integral(simtime.Interval{Start: start, End: start.Add(l)})
	}
	return &QueueTables{trace: tr, w: w, l: l, k0: k0, vals: vals, winSums: winSums}
}

// MaxWait returns the W the tables were built for.
func (t *QueueTables) MaxWait() simtime.Duration { return t.w }

// EstLength returns the length estimate L the window integrals use.
func (t *QueueTables) EstLength() simtime.Duration { return t.l }

// Integral is the underlying trace's window integral (policies use it for
// the minute-precise baseline window starting at `now`).
func (t *QueueTables) Integral(iv simtime.Interval) float64 { return t.trace.Integral(iv) }

// Boundaries returns the number k of hourly-boundary candidates in
// (now, now+W]. ok is false when now precedes the simulation origin or k
// falls outside the two precomputed widths (only possible for a caller
// asking about a different W than the tables were built for).
func (t *QueueTables) Boundaries(now simtime.Time) (k int, ok bool) {
	if now < 0 {
		return 0, false
	}
	m := int64(now) % int64(simtime.Hour)
	k = int((m + int64(t.w)) / int64(simtime.Hour))
	if k < t.k0 || k > t.k0+1 {
		return 0, false
	}
	return k, true
}

// Covers reports whether the window [i0, i0+k] lies inside the padded
// tables; callers fall back to a direct scan when it does not.
func (t *QueueTables) Covers(i0, k int) bool {
	return i0 >= 0 && i0+k < len(t.vals)
}

// LowestSlot returns the leftmost index of the minimum slot CI over
// candidate slots [i0, i0+k] — exactly the slot a strict-< scan in
// candidate order selects.
func (t *QueueTables) LowestSlot(i0, k int) (slot int, ok bool) {
	if !t.Covers(i0, k) {
		return 0, false
	}
	t.slotOnce.Do(func() {
		t.slotMin[0] = slideMinIndex(t.vals, t.k0+1)
		t.slotMin[1] = slideMinIndex(t.vals, t.k0+2)
	})
	return int(t.slotMin[k-t.k0][i0]), true
}

// LowestWindow returns the leftmost index of the minimum L-window
// integral over the boundary slots [i0+1, i0+k]. It requires k >= 1.
func (t *QueueTables) LowestWindow(i0, k int) (slot int, ok bool) {
	if k < 1 || !t.Covers(i0, k) {
		return 0, false
	}
	t.winOnce.Do(func() {
		if t.k0 >= 1 {
			t.winMin[0] = slideMinIndex(t.winSums, t.k0)
		}
		t.winMin[1] = slideMinIndex(t.winSums, t.k0+1)
	})
	return int(t.winMin[k-t.k0][i0+1]), true
}

// WindowSum returns the precomputed Integral([j·1h, j·1h+L)).
func (t *QueueTables) WindowSum(j int) float64 { return t.winSums[j] }

// slideMinIndex returns, for every i, the leftmost index of the minimum
// of base[i : min(i+k, len)] via a monotonic deque: the back is popped
// only on strictly greater values, so ties keep the earliest index —
// matching the strict-< scan the reference policies perform.
func slideMinIndex(base []float64, k int) []int32 {
	n := len(base)
	out := make([]int32, n)
	dq := make([]int32, n)
	head, tail, next := 0, 0, 0
	for i := 0; i < n; i++ {
		hi := i + k
		if hi > n {
			hi = n
		}
		for ; next < hi; next++ {
			v := base[next]
			for tail > head && base[dq[tail-1]] > v {
				tail--
			}
			dq[tail] = int32(next)
			tail++
		}
		for dq[head] < int32(i) {
			head++
		}
		out[i] = dq[head]
	}
	return out
}
