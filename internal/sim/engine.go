// Package sim is a minimal deterministic discrete-event engine. Events are
// callbacks scheduled at simulated instants; ties are broken first by an
// explicit priority class (so that, e.g., a finishing job releases its
// reserved units before a job starting at the same instant tries to claim
// them) and then by schedule order, making runs bit-for-bit reproducible.
//
// Pending events live in a hierarchical timing wheel by default (see
// wheel.go) with a 4-ary min-heap retained behind SetQueue as the
// differential reference; both mechanisms fire the exact same sequence.
// Event records are slab-allocated in a generation-checked arena and
// recycled through a free list, so a run's event storage is bounded by its
// peak in-flight count and Cancel is an O(1) mark instead of queue surgery.
package sim

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/simtime"
)

// Priority orders events that fire at the same instant: lower values run
// first.
type Priority int

// The scheduler's event classes, in same-instant execution order. Finish
// must precede Start so freed capacity is visible to jobs starting at the
// same minute; Evict precedes Start so a restarted job sees consistent
// state; Arrival runs last so a newly arrived job observes the
// post-transition cluster.
const (
	PriorityFinish Priority = iota
	PriorityEvict
	PriorityStart
	PriorityArrival
	PriorityLow
)

// Action is a pre-allocated event callback: scheduling one stores an
// interface value instead of allocating a closure, so callers that pool
// their action records (the core scheduler's per-job state) run the whole
// event loop allocation-free.
type Action interface {
	Fire()
}

// QueueKind selects the engine's pending-event mechanism.
type QueueKind int

const (
	// QueueWheel, the default: the hierarchical timing wheel — O(1)
	// amortized schedule/cancel/advance.
	QueueWheel QueueKind = iota
	// QueueHeap: the 4-ary min-heap the wheel replaced, kept as the
	// differential reference. Every run fires the exact same event
	// sequence under either kind.
	QueueHeap
)

// Engine is the event loop. The zero value is not usable; call NewEngine.
type Engine struct {
	now      simtime.Time
	seq      int64
	executed int64
	kind     QueueKind

	// arena slab-allocates event records, addressed by index so the
	// backing array can grow and records can recycle through the free
	// list (freeHead, index+1, 0 = empty). See arena.go.
	arena    []event
	freeHead int32

	// queued counts events held by the wheel or heap, including canceled
	// ones not yet reaped.
	queued int

	wheel wheelState
	heap  []int32

	// source feeds the known-sorted bulk — a workload's arrivals — from
	// index-addressed callbacks merged with the queue at each step, so
	// those events never exist as event records and the queue holds only
	// the in-flight events (see SetSource).
	source srcState

	// Interrupt probe (SetInterrupt): Run polls check every `every`
	// executed events and stops when it returns an error.
	interruptEvery int64
	interruptCheck func() error
	interruptNext  int64
	interruptErr   error
}

// srcState is the engine's pull-based sorted event source.
type srcState struct {
	n        int
	pos      int
	timeAt   func(i int) simtime.Time
	priority Priority
	fire     func(i int)
}

// NewEngine creates an engine at time 0 using the timing wheel.
func NewEngine() *Engine { return &Engine{} }

// SetQueue selects the pending-event mechanism. It must be called before
// any event is scheduled or executed — switching a live queue would strand
// its contents — and exists so differential tests and benchmarks can run
// the heap reference against the wheel.
func (e *Engine) SetQueue(k QueueKind) {
	if e.seq != 0 || e.executed != 0 {
		panic("sim: SetQueue after scheduling or running")
	}
	e.kind = k
}

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Executed returns the number of events run so far (canceled events are
// not counted).
func (e *Engine) Executed() int64 { return e.executed }

// Pending returns the number of events still queued. Canceled events not
// yet lazily reaped are included, so this is an upper bound on the events
// that will still fire.
func (e *Engine) Pending() int {
	return e.queued + e.source.n - e.source.pos
}

// SetSource installs a pull-based pre-sorted event source: n events whose
// times are timeAt(0..n-1) in non-decreasing order, all at the given
// priority, fired via fire(i). The engine merges the source with the queue
// at each step without ever materializing event records, so a
// million-arrival trace costs zero event storage. Source events win ties
// against queued events at the same (time, priority) — exactly the order
// scheduling them all up front would produce, since they would be
// sequence-numbered before any dynamic event. Source events cannot be
// canceled. Calling SetSource replaces any previous source.
func (e *Engine) SetSource(n int, timeAt func(i int) simtime.Time, p Priority, fire func(i int)) {
	if n > 0 && (timeAt == nil || fire == nil) {
		panic("sim: SetSource needs timeAt and fire callbacks")
	}
	e.source = srcState{n: n, timeAt: timeAt, priority: p, fire: fire}
}

// Schedule enqueues fn to run at t with the given priority, returning a
// handle for Cancel/Reschedule. It panics if t is in the past — schedulers
// deriving a start time must clamp to now themselves, and silently
// reordering history would corrupt accounting.
func (e *Engine) Schedule(t simtime.Time, p Priority, fn func()) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	h := e.schedule(t, p)
	e.arena[h.idx].fn = fn
	return h
}

// ScheduleAction is Schedule for a pre-allocated Action — no closure is
// created, so pooled action records make scheduling allocation-free.
func (e *Engine) ScheduleAction(t simtime.Time, p Priority, a Action) Handle {
	if a == nil {
		panic("sim: scheduling nil action")
	}
	h := e.schedule(t, p)
	e.arena[h.idx].act = a
	return h
}

// schedule allocates and enqueues a callback-less event at (t, p).
func (e *Engine) schedule(t simtime.Time, p Priority) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	idx := e.alloc()
	ev := &e.arena[idx]
	ev.time, ev.priority, ev.seq = t, p, e.seq
	gen := ev.gen
	e.seq++
	e.qPush(idx)
	return Handle{idx: idx, gen: gen}
}

// Cancel prevents the event identified by h from firing. It returns true
// if the event was pending and is now canceled, false if the handle is
// stale — the event already fired, was already canceled, or h is the zero
// Handle. Cancellation is O(1): the record is marked and reaped lazily
// when the queue next reaches it, with no queue surgery.
func (e *Engine) Cancel(h Handle) bool {
	if h.gen == 0 || h.idx < 0 || int(h.idx) >= len(e.arena) {
		return false
	}
	ev := &e.arena[h.idx]
	if ev.gen != h.gen || ev.canceled {
		return false
	}
	ev.canceled = true
	return true
}

// Reschedule moves the pending event identified by h to a new time and
// priority, returning the replacement handle. Stale handles are reported
// (ok false) rather than panicking, like Cancel. The replacement is a
// fresh event with a new sequence number — exactly what Cancel followed
// by Schedule would produce — so the fire order is identical under wheel
// and heap. Panics if t is in the past, like Schedule.
func (e *Engine) Reschedule(h Handle, t simtime.Time, p Priority) (Handle, bool) {
	if h.gen == 0 || h.idx < 0 || int(h.idx) >= len(e.arena) {
		return Handle{}, false
	}
	old := &e.arena[h.idx]
	if old.gen != h.gen || old.canceled {
		return Handle{}, false
	}
	// Capture the callback before scheduling: the fresh event may grow
	// the arena and move the old record out from under the pointer.
	fn, act := old.fn, old.act
	old.canceled = true
	nh := e.schedule(t, p)
	if fn != nil {
		e.arena[nh.idx].fn = fn
	} else {
		e.arena[nh.idx].act = act
	}
	return nh, true
}

// qPush enqueues an allocated event record into the selected queue.
func (e *Engine) qPush(idx int32) {
	e.queued++
	if e.kind == QueueHeap {
		e.heapPush(&e.heap, idx)
	} else {
		e.wheelPush(idx)
	}
}

// qPeek returns the next live queued event, or -1. Canceled events at the
// head are reaped here, without advancing the clock, under both queue
// kinds — so cancellation is invisible to the fire sequence.
func (e *Engine) qPeek() int32 {
	if e.kind == QueueHeap {
		for len(e.heap) > 0 {
			top := e.heap[0]
			if !e.arena[top].canceled {
				return top
			}
			e.heapPop(&e.heap)
			e.reap(top)
			e.queued--
		}
		return -1
	}
	return e.wheelPeek()
}

// qPop removes and returns the event qPeek just reported.
func (e *Engine) qPop() int32 {
	if e.kind == QueueHeap {
		idx := e.heapPop(&e.heap)
		e.queued--
		return idx
	}
	return e.wheelPop()
}

// SetInterrupt installs a cancellation probe: Run polls check after every
// `every` executed events (minimum 1) and abandons the remaining events
// the first time it returns a non-nil error, which Err then reports. The
// probe exists for long simulations driven by an online service — a
// canceled request must stop costing CPU — and is deliberately coarse:
// probing between events keeps the event loop allocation- and
// branch-cheap, and an uncanceled run executes exactly the same event
// sequence as one with no probe installed. The stride counts fired
// events (Executed), never queue pops or canceled-event reaps, so wheel
// and heap runs probe — and interrupt — at identical points. Pass a nil
// check to remove the probe.
func (e *Engine) SetInterrupt(every int64, check func() error) {
	if every < 1 {
		every = 1
	}
	e.interruptEvery = every
	e.interruptCheck = check
	e.interruptNext = e.executed + every
}

// Err returns the interrupt error that stopped Run early, or nil for a
// run that drained its event queue.
func (e *Engine) Err() error { return e.interruptErr }

// Run executes events until the queue is empty, or until an installed
// interrupt probe reports an error (see SetInterrupt).
func (e *Engine) Run() {
	for e.Pending() > 0 {
		if e.interruptCheck != nil && e.executed >= e.interruptNext {
			if err := e.interruptCheck(); err != nil {
				e.interruptErr = err
				return
			}
			e.interruptNext = e.executed + e.interruptEvery
		}
		e.step()
	}
}

// RunUntil executes events with time <= deadline, then advances the clock
// to deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline simtime.Time) {
	for t, ok := e.nextTime(); ok && t <= deadline; t, ok = e.nextTime() {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// nextTime returns the instant of the next live event to fire, if any.
// Canceled heads are reaped in passing so the reported time is one step()
// will actually fire at — RunUntil relies on that to honor its deadline.
func (e *Engine) nextTime() (simtime.Time, bool) {
	var t simtime.Time
	ok := false
	if q := e.qPeek(); q >= 0 {
		t, ok = e.arena[q].time, true
	}
	if s := &e.source; s.pos < s.n {
		if st := s.timeAt(s.pos); !ok || st < t {
			t, ok = st, true
		}
	}
	return t, ok
}

func (e *Engine) step() {
	// The queue's live head competes against the source's; the source wins
	// ties: its events are, by construction, enqueued before any dynamic
	// event, so they carry the smaller (conceptual) sequence numbers.
	cand := e.qPeek()
	if s := &e.source; s.pos < s.n {
		t := s.timeAt(s.pos)
		if cand < 0 || t < e.arena[cand].time ||
			(t == e.arena[cand].time && s.priority <= e.arena[cand].priority) {
			if t < e.now {
				panic(fmt.Sprintf("sim: source event at %v before now %v", t, e.now))
			}
			i := s.pos
			s.pos++
			e.now = t
			e.executed++
			s.fire(i)
			return
		}
	}
	if cand < 0 {
		return // only canceled events were pending; reaping was the step
	}
	e.qPop()
	ev := &e.arena[cand]
	e.now = ev.time
	e.executed++
	// Capture the callback before reaping: an event scheduled from inside
	// the callback may legitimately reuse this very record.
	fn, act := ev.fn, ev.act
	e.reap(cand)
	if fn != nil {
		fn()
	} else {
		act.Fire()
	}
}
