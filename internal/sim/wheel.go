package sim

import (
	mbits "math/bits"

	"github.com/carbonsched/gaia/internal/simtime"
)

// Hierarchical timing wheel over simulated minutes. Level 0 is
// minute-resolution (one slot per minute, 256 slots ≈ 4.3 simulated hours);
// each outer level widens the slot by 256×, so level 1 spans ~45 days and
// level 2 ~32 years. Events beyond level 2's window go to a comparison-
// ordered overflow heap that is merged at peek time and never cascaded.
//
// Schedule and cancel are O(1); advancing is O(1) amortized — each event is
// touched once per level it cascades through (at most twice) plus once in
// the sort of its drained slot. The engine's strict (time, priority, seq)
// order is restored at drain time: a slot's events are staged into the
// sorted run `cur` and consumed from there, so the fire sequence is
// bit-identical to the heap's.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
)

// wheelSpan is the width of level l's whole window in minutes: 256 for the
// inner wheel, 256^2 and 256^3 for the outer levels.
func wheelSpan(l int) simtime.Time {
	return 1 << (wheelBits * (l + 1))
}

type wheelState struct {
	// base[l] is the (span-aligned) start of level l's window. Bases only
	// rebase to the window holding the earliest pending wheel event, never
	// eagerly past it, so a source event firing earlier can still
	// schedule into the gap (those pushes land in cur, below).
	base  [wheelLevels]simtime.Time
	heads [wheelLevels][wheelSlots]int32 // intrusive lists, index+1, 0 = empty
	occ   [wheelLevels][wheelSlots / 64]uint64

	// cur is the staged run of due events: the most recently drained slot,
	// sorted by the total event order, consumed from curPos. Pushes at or
	// before the run's last instant are binary-inserted here instead of
	// into a slot, so a drained minute never splits across cur and a slot.
	cur    []int32
	curPos int

	// count tracks events in the levels plus cur (not overflow): it is the
	// advance loop's termination condition and the rebase trigger.
	count int

	// overflow holds events beyond level 2's window, ordered by comparison.
	overflow []int32
}

// wheelPush enqueues an allocated event record.
func (e *Engine) wheelPush(idx int32) {
	w := &e.wheel
	t := e.arena[idx].time
	if w.count == 0 {
		// Nothing pending in the levels or cur: rebase every window to the
		// current instant so the new event lands as deep (fine-grained) as
		// its lead time allows.
		for l := 0; l < wheelLevels; l++ {
			w.base[l] = e.now &^ (wheelSpan(l) - 1)
		}
		if e.wheelPlace(idx, t) {
			w.count++
		}
		return
	}
	if n := len(w.cur); w.curPos < n && t <= e.arena[w.cur[n-1]].time {
		// At or before the staged run's last instant: must be ordered
		// within cur (slots would fire it after the whole run).
		e.curInsert(idx)
		w.count++
		return
	}
	if t < w.base[0] {
		// Before the inner window: the bases have advanced past t (a
		// source event fired earlier and scheduled into the gap).
		// cur doubles as the holding run for these.
		e.curInsert(idx)
		w.count++
		return
	}
	if e.wheelPlace(idx, t) {
		w.count++
	}
}

// wheelPlace files the event into the innermost level whose window covers
// t, or the overflow heap beyond level 2. It reports whether the event
// landed in a level (and therefore counts toward wheelState.count).
func (e *Engine) wheelPlace(idx int32, t simtime.Time) bool {
	w := &e.wheel
	for l := 0; l < wheelLevels; l++ {
		if t < w.base[l]+wheelSpan(l) {
			// Bases are span-aligned, so the masked shift is the offset
			// from base[l] in slot units.
			s := int(t>>(wheelBits*l)) & wheelMask
			e.arena[idx].next = w.heads[l][s]
			w.heads[l][s] = idx + 1
			w.occ[l][s>>6] |= 1 << (uint(s) & 63)
			return true
		}
	}
	e.heapPush(&w.overflow, idx)
	return false
}

// curInsert binary-inserts the event into the unconsumed tail of cur,
// keeping the staged run sorted by the total event order.
func (e *Engine) curInsert(idx int32) {
	w := &e.wheel
	lo, hi := w.curPos, len(w.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.before(w.cur[mid], idx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.cur = append(w.cur, 0)
	copy(w.cur[lo+1:], w.cur[lo:])
	w.cur[lo] = idx
}

// wheelPeek returns the next live event index, or -1 if the wheel is
// empty. Canceled events encountered at the heads are reaped here — their
// Cancel was an O(1) mark — and the staged run is refilled from the levels
// as it drains.
func (e *Engine) wheelPeek() int32 {
	w := &e.wheel
	for {
		if w.curPos < len(w.cur) {
			idx := w.cur[w.curPos]
			if e.arena[idx].canceled {
				e.reap(idx)
				e.queued--
				w.count--
				w.curPos++
				continue
			}
			break
		}
		if len(w.cur) > 0 {
			w.cur, w.curPos = w.cur[:0], 0
		}
		if w.count > 0 {
			e.wheelAdvance()
			continue
		}
		break
	}
	cand := int32(-1)
	if w.curPos < len(w.cur) {
		cand = w.cur[w.curPos]
	}
	for len(w.overflow) > 0 {
		top := w.overflow[0]
		if e.arena[top].canceled {
			e.heapPop(&w.overflow)
			e.reap(top)
			e.queued--
			continue
		}
		if cand < 0 || e.before(top, cand) {
			cand = top
		}
		break
	}
	return cand
}

// wheelPop removes and returns the event wheelPeek just reported. Both
// heads are live (peek reaped any canceled ones), so a single comparison
// picks the same winner.
func (e *Engine) wheelPop() int32 {
	w := &e.wheel
	curHead := int32(-1)
	if w.curPos < len(w.cur) {
		curHead = w.cur[w.curPos]
	}
	if len(w.overflow) > 0 && (curHead < 0 || e.before(w.overflow[0], curHead)) {
		idx := e.heapPop(&w.overflow)
		e.queued--
		return idx
	}
	w.curPos++
	if w.curPos == len(w.cur) {
		w.cur, w.curPos = w.cur[:0], 0
	}
	w.count--
	e.queued--
	return curHead
}

// wheelAdvance refills the staged run: it drains the earliest occupied
// level-0 slot, cascading outer-level slots inward as their windows are
// reached. Only called with cur empty and count > 0 — every pending level
// event is at or after base[0], which is at or after everything already
// fired, so draining here can never reorder against the consumed run.
func (e *Engine) wheelAdvance() {
	w := &e.wheel
	for w.count > 0 {
		if s := findSlot(&w.occ[0]); s >= 0 {
			e.drainSlot(s)
			if w.curPos < len(w.cur) {
				return
			}
			continue // slot held only canceled events
		}
		if s := findSlot(&w.occ[1]); s >= 0 {
			w.base[0] = w.base[1] + simtime.Time(s)<<wheelBits
			e.cascade(1, s)
			continue
		}
		if s := findSlot(&w.occ[2]); s >= 0 {
			w.base[1] = w.base[2] + simtime.Time(s)<<(2*wheelBits)
			e.cascade(2, s)
			continue
		}
		panic("sim: wheel count desync")
	}
}

// drainSlot empties level-0 slot s into cur and sorts the run. Canceled
// events are reaped during the walk instead of staged.
func (e *Engine) drainSlot(s int) {
	w := &e.wheel
	link := w.heads[0][s]
	w.heads[0][s] = 0
	w.occ[0][s>>6] &^= 1 << (uint(s) & 63)
	for link != 0 {
		idx := link - 1
		link = e.arena[idx].next // before reap: reap rewrites next
		if e.arena[idx].canceled {
			e.reap(idx)
			e.queued--
			w.count--
			continue
		}
		w.cur = append(w.cur, idx)
	}
	e.sortRun(w.cur)
	w.curPos = 0
}

// cascade redistributes level-l slot s into level l-1, whose base the
// caller has just advanced to cover this slot's window.
func (e *Engine) cascade(l, s int) {
	w := &e.wheel
	link := w.heads[l][s]
	w.heads[l][s] = 0
	w.occ[l][s>>6] &^= 1 << (uint(s) & 63)
	shift := uint(wheelBits * (l - 1))
	for link != 0 {
		idx := link - 1
		link = e.arena[idx].next
		if e.arena[idx].canceled {
			e.reap(idx)
			e.queued--
			w.count--
			continue
		}
		d := int(e.arena[idx].time>>shift) & wheelMask
		e.arena[idx].next = w.heads[l-1][d]
		w.heads[l-1][d] = idx + 1
		w.occ[l-1][d>>6] |= 1 << (uint(d) & 63)
	}
}

// findSlot returns the lowest set slot in an occupancy bitmap, or -1.
// Scanning from bit 0 is correct because every pending level event is at
// or after its level's base.
func findSlot(occ *[wheelSlots / 64]uint64) int {
	for i, word := range occ {
		if word != 0 {
			return i<<6 + mbits.TrailingZeros64(word)
		}
	}
	return -1
}

// sortRun orders a staged run by the engine's total event order: a
// hand-rolled quicksort (median-of-three pivot, insertion sort for short
// runs) so a fleet-wide same-minute burst drains in O(k log k) without
// sort.Slice's closure allocation.
func (e *Engine) sortRun(a []int32) {
	for len(a) > 24 {
		m, hi := len(a)/2, len(a)-1
		if e.before(a[m], a[0]) {
			a[0], a[m] = a[m], a[0]
		}
		if e.before(a[hi], a[m]) {
			a[m], a[hi] = a[hi], a[m]
			if e.before(a[m], a[0]) {
				a[0], a[m] = a[m], a[0]
			}
		}
		pivot := a[m]
		i, j := 0, hi
		for i <= j {
			for e.before(a[i], pivot) {
				i++
			}
			for e.before(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, iterate on the larger: O(log k)
		// stack depth worst case.
		if j < len(a)-i {
			e.sortRun(a[:j+1])
			a = a[i:]
		} else {
			e.sortRun(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && e.before(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}
