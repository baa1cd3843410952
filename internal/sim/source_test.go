package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

// TestSourceMergesIdenticallyWithStream feeds the same arrival set through
// three engines — the pull-based sorted stream (SetSource), and plain
// Schedule calls on the wheel and on the heap — and requires identical
// execution orders. Callbacks re-schedule follow-up
// events at colliding instants to exercise tie-breaking while the source
// is still non-empty.
func TestSourceMergesIdenticallyWithStream(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	times := make([]simtime.Time, 300)
	at := simtime.Time(0)
	for i := range times {
		at = at.Add(simtime.Duration(rng.Intn(4))) // dense ties
		times[i] = at
	}

	type mode int
	const (
		useSource mode = iota
		useWheel
		useHeap
	)
	run := func(m mode) []int {
		var order []int
		e := NewEngine()
		if m == useHeap {
			e.SetQueue(QueueHeap)
		}
		record := func(id int) {
			order = append(order, id)
			if id%3 == 0 {
				// Follow-ups land in the heap at the same instant as later
				// arrivals, at both lower and higher priorities.
				e.Schedule(e.Now().Add(simtime.Duration(id%5)), PriorityStart, func() {
					order = append(order, 10000+id)
				})
				e.Schedule(e.Now().Add(simtime.Duration(id%5)), PriorityLow, func() {
					order = append(order, 20000+id)
				})
			}
		}
		switch m {
		case useSource:
			e.SetSource(len(times), func(i int) simtime.Time { return times[i] },
				PriorityArrival, record)
		case useWheel, useHeap:
			for i, at := range times {
				i := i
				e.Schedule(at, PriorityArrival, func() { record(i) })
			}
		}
		e.Run()
		return order
	}

	want := run(useHeap)
	if got := run(useWheel); !reflect.DeepEqual(got, want) {
		t.Fatalf("wheel order diverges from heap order:\n wheel = %v\n heap  = %v", got, want)
	}
	if got := run(useSource); !reflect.DeepEqual(got, want) {
		t.Fatalf("source order diverges from heap order:\n source = %v\n heap   = %v", got, want)
	}
}

// TestSourcePendingAndRunUntil checks that source events count as pending
// and respect RunUntil deadlines.
func TestSourcePendingAndRunUntil(t *testing.T) {
	e := NewEngine()
	times := []simtime.Time{5, 10, 15}
	var fired []int
	e.SetSource(len(times), func(i int) simtime.Time { return times[i] },
		PriorityArrival, func(i int) { fired = append(fired, i) })
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.RunUntil(10)
	if want := []int{0, 1}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
	e.Run()
	if len(fired) != 3 || e.Pending() != 0 {
		t.Fatalf("after Run: fired = %v, pending = %d", fired, e.Pending())
	}
}

// actionRecorder implements Action.
type actionRecorder struct {
	order *[]int
	id    int
}

func (a *actionRecorder) Fire() { *a.order = append(*a.order, a.id) }

// TestScheduleActionOrdering interleaves closure and action events and
// checks they obey the same (time, priority, seq) order.
func TestScheduleActionOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, PriorityStart, func() { order = append(order, 1) })
	e.ScheduleAction(5, PriorityFinish, &actionRecorder{&order, 0})
	e.ScheduleAction(5, PriorityStart, &actionRecorder{&order, 2}) // same (t,p) as id 1, later seq
	e.Run()
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestArenaRecyclingPreservesOrder verifies that arena recycling — which
// reuses a fired record for an event scheduled from inside its own
// callback — never perturbs execution order, and that canceled events
// still never fire, under both queue kinds.
func TestArenaRecyclingPreservesOrder(t *testing.T) {
	run := func(kind QueueKind) []int {
		e := NewEngine()
		e.SetQueue(kind)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(simtime.Time(i), PriorityStart, func() {
				order = append(order, i)
				// Schedule from inside a callback: this may reuse the
				// record currently firing.
				e.Schedule(simtime.Time(i+100), PriorityFinish, func() {
					order = append(order, 1000+i)
				})
			})
		}
		h := e.Schedule(60, PriorityStart, func() { order = append(order, -1) })
		e.Cancel(h)
		e.Run()
		return order
	}
	want := run(QueueHeap)
	got := run(QueueWheel)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wheel order diverges from heap:\n wheel = %v\n heap  = %v", got, want)
	}
	for _, id := range got {
		if id == -1 {
			t.Fatal("canceled event fired")
		}
	}
}

// TestArenaBoundsStorage pins the point of the free-list arena: a long
// sequential chain of events reuses one record instead of growing storage
// with the total event count.
func TestArenaBoundsStorage(t *testing.T) {
	e := NewEngine()
	var n int
	var step func()
	step = func() {
		n++
		if n < 10000 {
			e.Schedule(e.Now().Add(1), PriorityStart, step)
		}
	}
	e.Schedule(0, PriorityStart, step)
	e.Run()
	if n != 10000 {
		t.Fatalf("ran %d events", n)
	}
	if got := e.seq; got != 10000 {
		t.Fatalf("seq = %d, want 10000", got)
	}
	// One arena record covers the whole chain when records recycle.
	if len(e.arena) != 1 {
		t.Fatalf("arena holds %d records, want 1", len(e.arena))
	}
}
