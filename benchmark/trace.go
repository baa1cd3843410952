package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/trace"
	"sort"
	"time"
)

// A span records one traced call into a layer's public API, made from
// this program's own code. Spans nest by caller: Parent is the span that
// was open when the call began (0 for none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
	// SelfNS is the span's duration minus the time its child spans cover,
	// filled in when the spans are written.
	SelfNS int64 `json:"self_ns"`
}

// tracer times calls. With spans off it only measures; with spans on it
// also keeps every span in memory until write. Spans opened through
// tracer.do must come from one goroutine; concurrent senders record their
// own spans and hand them over with adopt.
type tracer struct {
	on       bool
	workload string
	t0       time.Time
	spans    []span
	open     []int // indices into spans of the spans now open
	ctx      context.Context
	regions  bool // also emit runtime/trace regions
}

func newTracer(on bool, workload string) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now(), ctx: context.Background()}
}

// do times f and, with spans on, records it as a span named name that
// stands for count operations.
func (t *tracer) do(name string, count int64, f func() error) (time.Duration, error) {
	if !t.on {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.current(), Workload: t.workload, Name: name, Count: count})
	t.open = append(t.open, id-1)
	var region *trace.Region
	if t.regions {
		region = trace.StartRegion(t.ctx, name)
	}
	start := time.Now()
	err := f()
	end := time.Now()
	if region != nil {
		region.End()
	}
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[id-1]
	sp.StartNS, sp.EndNS = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return end.Sub(start), err
}

// current is the ID of the innermost open span, 0 when none is open.
func (t *tracer) current() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1] + 1
}

// leaf builds a finished span for a call timed on another goroutine; the
// caller passes it back through adopt once that goroutine is done.
func (t *tracer) leaf(parent int, name string, start, end time.Time) span {
	return span{Parent: parent, Workload: t.workload, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Count: 1}
}

// adopt appends spans recorded elsewhere, numbering them in order.
func (t *tracer) adopt(spans []span) {
	if !t.on {
		return
	}
	for _, sp := range spans {
		sp.ID = len(t.spans) + 1
		t.spans = append(t.spans, sp)
	}
}

// selfTimes fills SelfNS: a span's duration minus the part of it that its
// children cover. Children of one parent may overlap (concurrent senders),
// so covered time is the union of their intervals.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i := range spans {
		sp := &spans[i]
		var covered, reach int64
		reach = sp.StartNS
		for _, c := range sortedByStart(spans, children[sp.ID]) {
			s, e := spans[c].StartNS, spans[c].EndNS
			if s < reach {
				s = reach
			}
			if e > s {
				covered += e - s
				reach = e
			}
		}
		sp.SelfNS = sp.EndNS - sp.StartNS - covered
	}
}

func sortedByStart(spans []span, idx []int) []int {
	out := append([]int(nil), idx...)
	sort.Slice(out, func(a, b int) bool { return spans[out[a]].StartNS < spans[out[b]].StartNS })
	return out
}

// write stores every span, with self times, as a JSON array at path.
func (t *tracer) write(path string) error {
	selfTimes(t.spans)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
