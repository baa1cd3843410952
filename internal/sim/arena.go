package sim

import "github.com/carbonsched/gaia/internal/simtime"

// Handle identifies a scheduled event for Cancel and Reschedule. It is a
// value (arena index + generation stamp), not a pointer: holding one past
// the event's firing is always safe, because the generation check makes a
// stale handle miss instead of reaching the slot's next tenant. The zero
// Handle is invalid and never matches anything.
type Handle struct {
	idx int32
	gen uint32
}

// event is one arena slot: a scheduled callback plus the intrusive link
// that threads it through a wheel slot list or the free list. Events are
// addressed by arena index, never by long-lived pointer, so the arena can
// grow (append moves the backing array) and recycle records freely.
type event struct {
	time     simtime.Time
	priority Priority
	seq      int64
	fn       func()
	act      Action
	// next links the event into a wheel slot list or the free list,
	// storing index+1 so the zero value terminates.
	next int32
	// gen is the slot's tenancy counter: a Handle is live iff its gen
	// matches. Bumped on every reap, so canceling after the fact is a
	// detectable no-op instead of heap corruption.
	gen      uint32
	canceled bool
}

// before is the engine's total event order: (time, priority, seq). seq is
// unique, so the order is strict and the execution sequence is independent
// of queue layout — the property that lets the wheel and the heap produce
// bit-identical runs.
func (e *Engine) before(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	if ea.priority != eb.priority {
		return ea.priority < eb.priority
	}
	return ea.seq < eb.seq
}

// alloc takes an arena slot from the free list, growing the arena only
// when no fired record is available for reuse: a long run's event storage
// is bounded by its peak in-flight count, not its total event count.
func (e *Engine) alloc() int32 {
	if e.freeHead != 0 {
		idx := e.freeHead - 1
		e.freeHead = e.arena[idx].next
		return idx
	}
	e.arena = append(e.arena, event{gen: 1})
	return int32(len(e.arena) - 1)
}

// reap retires a fired, canceled or abandoned event record: the slot's
// generation advances (invalidating every outstanding Handle to it) and
// the record joins the free list for the next alloc.
func (e *Engine) reap(idx int32) {
	ev := &e.arena[idx]
	ev.fn, ev.act = nil, nil
	ev.canceled = false
	ev.gen++
	if ev.gen == 0 { // generation wrap: keep 0 meaning "never a handle"
		ev.gen = 1
	}
	ev.next = e.freeHead
	e.freeHead = idx + 1
}
