package policy

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// waStep is one arrival of a WaitAwhile decision stream; est decides it
// with WaitAwhile-Est, which plans the queue's average length instead.
type waStep struct {
	now    simtime.Time
	length simtime.Duration
	queue  workload.Queue
	est    bool
}

// checkWaitAwhileStream decides every step on one fast-path Context, as a
// simulation run does, and on a plain Context that can only take the
// reference path. Each fast plan is copied before the next Decide (it is
// borrowed, see Decision) and must be reflect.DeepEqual to the reference
// decision, and every fast decision must come from the rank window.
func checkWaitAwhileStream(t testing.TB, label string, tr *carbon.Trace, queues map[workload.Queue]QueueInfo, steps []waStep) {
	t.Helper()
	fast := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
	fast.EnableFastPaths()
	ref := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
	for i, s := range steps {
		var p Policy = WaitAwhile{}
		if s.est {
			p = WaitAwhileEst{}
		}
		job := workload.Job{ID: i, Length: s.length, CPUs: 1, Queue: s.queue}
		d := p.Decide(job, s.now, fast)
		got := Decision{Start: d.Start, Plan: slices.Clone(d.Plan)}
		want := p.Decide(job, s.now, ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, step %d, %s(queue=%d, len=%v, now=%v), window [%d, %d]:\n fast = %+v\n ref  = %+v",
				label, i, p.Name(), s.queue, s.length, s.now, fast.winLo, fast.winHi, got, want)
		}
	}
	if hits := fast.FastPathHits(); hits != int64(len(steps)) {
		t.Fatalf("%s: %d of %d decisions took the fast path", label, hits, len(steps))
	}
}

// waitAwhileSteps draws a decision stream whose arrivals mostly move
// forward in time, as a simulation's do: small steps inside an hour or
// into the next, same-hour bursts, jumps of days past the rank window's
// end, and backward jumps (an arrival past limit wraps back into the
// trace). Lengths run from 5 minutes to 3 days.
func waitAwhileSteps(rng *rand.Rand, n int, limit simtime.Time, step simtime.Duration, qs []workload.Queue) []waStep {
	steps := make([]waStep, 0, n)
	var now simtime.Time
	burst := 0
	for len(steps) < n {
		switch r := rng.Intn(100); {
		case burst > 0:
			burst--
			now = now.Add(simtime.Duration(rng.Intn(5)))
		case r < 4:
			now -= simtime.Time(rng.Int63n(int64(2 * simtime.Day)))
		case r < 8:
			now = now.Add(3*simtime.Day + simtime.Duration(rng.Int63n(int64(7*simtime.Day))))
		case r < 20:
			burst = 2 + rng.Intn(12)
		default:
			now = now.Add(simtime.Duration(rng.Int63n(int64(step))))
		}
		if now < 0 {
			now = 0
		}
		if now > limit {
			now = simtime.Time(rng.Int63n(int64(limit)))
		}
		var length simtime.Duration
		switch r := rng.Intn(10); {
		case r < 5:
			length = 5 + simtime.Duration(rng.Intn(115))
		case r < 8:
			length = 2*simtime.Hour + simtime.Duration(rng.Int63n(int64(22*simtime.Hour)))
		default:
			length = simtime.Day + simtime.Duration(rng.Int63n(int64(2*simtime.Day)))
		}
		steps = append(steps, waStep{now: now, length: length, queue: qs[rng.Intn(len(qs))], est: rng.Intn(4) == 0})
	}
	return steps
}

// TestWaitAwhileStreamMatchesReference drives the rolling rank window the
// way a simulation run does: one Context, arrivals mostly in time order,
// so each decision drops the hours before its arrival, reuses the slots
// the previous deadlines ranked and extends the window to its own. It
// runs over a year-long SA-AU trace with the paper's queues and over
// every diffTraces shape with every diffQueueConfigs queue set.
// TestFastPathsMatchReferenceDecisions' random arrivals rarely drop or
// extend a window across hours.
func TestWaitAwhileStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	year := carbon.RegionSAAU.GenerateYear(3)
	paper := diffQueueConfigs()[0]
	checkWaitAwhileStream(t, "SA-AU year", year, paper,
		waitAwhileSteps(rng, 4000, simtime.Time(year.Horizon()), 3*simtime.Hour, sortedQueues(paper)))
	for ti, tr := range diffTraces() {
		for qi, queues := range diffQueueConfigs() {
			limit := simtime.Time(tr.Horizon() + 3*simtime.Hour)
			checkWaitAwhileStream(t, fmt.Sprintf("trace %d, config %d", ti, qi), tr, queues,
				waitAwhileSteps(rng, 600, limit, 90*simtime.Minute, sortedQueues(queues)))
		}
	}
}

// FuzzWaitAwhileStream checks fuzzed decision streams against the
// reference path: each 5-byte record of stream is one arrival, a signed
// step in minutes from the previous one (negative steps move backward,
// clamped at 0), a length from 1 minute to 3 days, and a flag byte that
// picks the queue and WaitAwhile or WaitAwhile-Est. The queues' waits are
// fuzzed too, from 0 to 2 days.
func FuzzWaitAwhileStream(f *testing.F) {
	traces := append(diffTraces(), carbon.RegionSAAU.Generate(24*21, 7))
	record := func(delta int16, length uint16, flags byte) []byte {
		b := binary.LittleEndian.AppendUint16(nil, uint16(delta))
		b = binary.LittleEndian.AppendUint16(b, length)
		return append(b, flags)
	}
	var forward, mixed []byte
	for i := 0; i < 40; i++ {
		forward = append(forward, record(int16(7*i%50), uint16(60+97*i), byte(i))...)
		mixed = append(mixed, record(int16(600-31*i), uint16(4000-83*i), byte(i/3))...)
	}
	f.Add(uint8(1), uint16(360), uint16(1440), forward)
	f.Add(uint8(2), uint16(90), uint16(450), mixed)
	f.Add(uint8(5), uint16(0), uint16(2880), mixed)
	f.Add(uint8(4), uint16(1), uint16(7), forward)
	f.Fuzz(func(t *testing.T, traceSel uint8, waitShort, waitLong uint16, stream []byte) {
		const maxSteps = 200
		tr := traces[int(traceSel)%len(traces)]
		queues := map[workload.Queue]QueueInfo{
			workload.QueueShort: {MaxWait: simtime.Duration(waitShort) % (2 * simtime.Day), AvgLength: 90 * simtime.Minute},
			workload.QueueLong:  {MaxWait: simtime.Duration(waitLong) % (2 * simtime.Day), AvgLength: 5 * simtime.Hour},
		}
		var steps []waStep
		var now simtime.Time
		for len(stream) >= 5 && len(steps) < maxSteps {
			now = now.Add(simtime.Duration(int16(binary.LittleEndian.Uint16(stream))))
			if now < 0 {
				now = 0
			}
			length := 1 + simtime.Duration(binary.LittleEndian.Uint16(stream[2:]))%(3*simtime.Day)
			q := workload.QueueShort
			if stream[4]&1 != 0 {
				q = workload.QueueLong
			}
			steps = append(steps, waStep{now: now, length: length, queue: q, est: stream[4]&2 != 0})
			stream = stream[5:]
		}
		checkWaitAwhileStream(t, "fuzz", tr, queues, steps)
	})
}
