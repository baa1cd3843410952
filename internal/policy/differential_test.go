package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// diffPolicies is every policy in the package; the four oracle-backed ones
// plus the rest, which must be unaffected by EnableFastPaths.
func diffPolicies() []Policy {
	return []Policy{
		NoWait{}, AllWait{},
		LowestSlot{}, LowestWindow{}, CarbonTime{},
		WaitAwhile{}, WaitAwhileEst{}, Ecovisor{},
	}
}

// diffQueueConfigs covers the paper's default, a deliberately
// non-hour-aligned configuration, a zero-wait queue, and a three-queue
// ladder.
func diffQueueConfigs() []map[workload.Queue]QueueInfo {
	return []map[workload.Queue]QueueInfo{
		{
			workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: 90 * simtime.Minute},
			workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: 5 * simtime.Hour},
		},
		{
			workload.QueueShort: {MaxWait: 90 * simtime.Minute, AvgLength: 100 * simtime.Minute},
			workload.QueueLong:  {MaxWait: 7*simtime.Hour + 30*simtime.Minute, AvgLength: 3*simtime.Hour + 17*simtime.Minute},
		},
		{
			workload.QueueShort: {MaxWait: 0, AvgLength: 45 * simtime.Minute},
			workload.QueueLong:  {MaxWait: 26 * simtime.Hour, AvgLength: 26 * simtime.Hour},
		},
		{
			workload.Queue(0): {MaxWait: simtime.Hour, AvgLength: 30 * simtime.Minute},
			workload.Queue(1): {MaxWait: 5 * simtime.Hour, AvgLength: 2 * simtime.Hour},
			workload.Queue(2): {MaxWait: 30 * simtime.Hour, AvgLength: 9 * simtime.Hour},
		},
	}
}

// diffTraces covers random CI series of two lengths, a tie-heavy quantized
// series (the argmin tie-breaking cases), a constant series (all ties), and
// a single-slot trace.
func diffTraces() []*carbon.Trace {
	random := func(seed int64, n int) *carbon.Trace {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, n)
		for i := range values {
			values[i] = 30 + 700*rng.Float64()
		}
		return carbon.MustTrace("random", values)
	}
	quantized := func(seed int64, n int) *carbon.Trace {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(1+rng.Intn(3)) * 100
		}
		return carbon.MustTrace("ties", values)
	}
	constant := make([]float64, 48)
	for i := range constant {
		constant[i] = 250
	}
	return []*carbon.Trace{
		random(1, 36),
		random(2, 173),
		quantized(3, 96),
		carbon.MustTrace("constant", constant),
		carbon.MustTrace("single", []float64{123}),
	}
}

func sortedQueues(queues map[workload.Queue]QueueInfo) []workload.Queue {
	out := make([]workload.Queue, 0, len(queues))
	for q := range queues {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestFastPathsMatchReferenceDecisions is the tentpole's differential
// test: for every policy, trace shape and queue configuration, a Context
// with fast paths enabled must return decisions reflect.DeepEqual to a
// plain Context that can only take the reference path. Arrival minutes are
// mostly non-hour-aligned, and some arrivals land past the trace horizon
// to exercise the coverage guards. Random arrivals rarely share an hour,
// so bursts of same-hour arrivals (sameHourArrivals) drive WaitAwhile's
// window extension; TestWaitAwhileStreamMatchesReference drives its drops.
func TestFastPathsMatchReferenceDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for ti, tr := range diffTraces() {
		for qi, queues := range diffQueueConfigs() {
			ctxFast := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			ctxFast.EnableFastPaths()
			ctxRef := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			qs := sortedQueues(queues)
			horizon := int64(tr.Horizon())
			for trial := 0; trial < 60; trial++ {
				now := simtime.Time(rng.Int63n(horizon + 3*int64(simtime.Hour)))
				if trial%5 == 0 {
					now -= now % 60 // some hour-aligned arrivals too
				}
				length := simtime.Duration(1 + rng.Int63n(int64(26*simtime.Hour)))
				job := workload.Job{
					ID:     trial,
					Length: length,
					CPUs:   1,
					Queue:  qs[rng.Intn(len(qs))],
				}
				for _, p := range diffPolicies() {
					dFast := p.Decide(job, now, ctxFast)
					dRef := p.Decide(job, now, ctxRef)
					if !reflect.DeepEqual(dFast, dRef) {
						t.Fatalf("trace %d, config %d, %s(queue=%d, len=%v, now=%v):\n fast = %+v\n ref  = %+v",
							ti, qi, p.Name(), job.Queue, length, now, dFast, dRef)
					}
				}
			}
			if ctxFast.FastPathHits() == 0 {
				t.Errorf("trace %d, config %d: fast path never hit", ti, qi)
			}
			if ctxRef.FastPathHits() != 0 {
				t.Errorf("trace %d, config %d: plain context took the fast path", ti, qi)
			}
			sameHourArrivals(t, rng, tr, queues, fmt.Sprintf("trace %d, config %d", ti, qi))
		}
	}
}

// sameHourArrivals is the window-extension half of the differential:
// bursts of arrivals inside one hour, so WaitAwhile's rank window is
// built once and then extended, or only filtered, by each later
// deadline. Deadlines rise (every arrival extends the window), fall (one
// build, then filtering) or are random, in the first hour, mid-trace, the
// final hour and past the horizon, where every window runs past it. Each
// burst starts from a fresh Context so its window starts empty.
func sameHourArrivals(t *testing.T, rng *rand.Rand, tr *carbon.Trace, queues map[workload.Queue]QueueInfo, label string) {
	t.Helper()
	const burst = 12
	qs := sortedQueues(queues)
	n := tr.Len()
	for _, hour := range []int{0, n / 2, n - 1, n + 2} {
		for _, pattern := range []string{"rising", "falling", "random"} {
			ctxFast := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			ctxFast.EnableFastPaths()
			ctxRef := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			for k := 0; k < burst; k++ {
				now := simtime.Time(hour)*simtime.Time(simtime.Hour) + simtime.Time(rng.Intn(60))
				var length simtime.Duration
				switch pattern {
				case "rising":
					length = simtime.Duration(k+1)*2*simtime.Hour + simtime.Duration(rng.Intn(60))
				case "falling":
					length = simtime.Duration(burst-k)*2*simtime.Hour + simtime.Duration(rng.Intn(60))
				default:
					length = simtime.Duration(1 + rng.Int63n(int64(30*simtime.Hour)))
				}
				job := workload.Job{ID: k, Length: length, CPUs: 1, Queue: qs[rng.Intn(len(qs))]}
				for _, p := range []Policy{WaitAwhile{}, WaitAwhileEst{}} {
					dFast := p.Decide(job, now, ctxFast)
					dRef := p.Decide(job, now, ctxRef)
					if !reflect.DeepEqual(dFast, dRef) {
						t.Fatalf("%s, hour %d, %s burst, %s(queue=%d, len=%v, now=%v):\n fast = %+v\n ref  = %+v",
							label, hour, pattern, p.Name(), job.Queue, length, now, dFast, dRef)
					}
				}
			}
			if want := int64(2 * burst); ctxFast.FastPathHits() != want {
				t.Errorf("%s, hour %d, %s burst: %d fast-path hits, want %d", label, hour, pattern, ctxFast.FastPathHits(), want)
			}
		}
	}
}

// opaqueCIS hides a service's concrete type, standing in for any
// forecaster EnableFastPaths must not bind.
type opaqueCIS struct{ carbon.Service }

// TestEnableFastPathsRebinds pins re-binding: a Context enabled on trace A
// and then re-enabled on another CIS must decide exactly as a plain
// Context over that CIS — none of A's tables or WaitAwhile's rank window
// may survive, whether the new CIS is opaque (no fast paths) or a perfect
// service over trace B. A's cheapest slot is [4h, 5h), B's [1h, 2h).
func TestEnableFastPathsRebinds(t *testing.T) {
	a := carbon.MustTrace("A", []float64{500, 500, 500, 500, 10, 500, 500, 500, 500})
	b := carbon.MustTrace("B", []float64{500, 10, 500, 500, 500, 500, 500, 500, 500})
	queues := map[workload.Queue]QueueInfo{
		workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: simtime.Hour},
		workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: 4 * simtime.Hour},
	}
	job := workload.Job{ID: 1, Length: simtime.Hour, CPUs: 1, Queue: workload.QueueShort}
	policies := []Policy{LowestSlot{}, CarbonTime{}, WaitAwhile{}}
	for _, next := range []struct {
		name string
		cis  carbon.Service
		hits int64
	}{
		{"opaque", opaqueCIS{carbon.NewPerfectService(b)}, 0},
		{"perfect", carbon.NewPerfectService(b), int64(len(policies))},
	} {
		ctx := &Context{CIS: carbon.NewPerfectService(a), Queues: queues}
		ctx.EnableFastPaths()
		for _, p := range policies {
			p.Decide(job, 0, ctx) // build A's tables and rank window
		}
		ctx.CIS = next.cis
		ctx.EnableFastPaths()
		before := ctx.FastPathHits()
		ref := &Context{CIS: next.cis, Queues: queues}
		for _, p := range policies {
			got, want := p.Decide(job, 0, ctx), p.Decide(job, 0, ref)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s CIS, %s: re-bound context decided %+v, plain context %+v", next.name, p.Name(), got, want)
			}
			if got.End(job.Length) != simtime.Time(2*simtime.Hour) {
				t.Errorf("%s CIS, %s: decision %+v does not run in B's cheapest slot [1h, 2h)", next.name, p.Name(), got)
			}
		}
		if hits := ctx.FastPathHits() - before; hits != next.hits {
			t.Errorf("%s CIS: %d fast-path hits after re-binding, want %d", next.name, hits, next.hits)
		}
	}
}

// TestFastPathHitCounting pins that each oracle-backed policy actually
// answers from the tables on an ordinary in-horizon decision.
func TestFastPathHitCounting(t *testing.T) {
	ctx := testCtx([]float64{400, 100, 300, 200, 500, 50, 600, 250}, 90*simtime.Minute, 4*simtime.Hour)
	ctx.EnableFastPaths()
	for _, p := range []Policy{LowestSlot{}, LowestWindow{}, CarbonTime{}, WaitAwhile{}, WaitAwhileEst{}} {
		before := ctx.FastPathHits()
		p.Decide(longJob(3*simtime.Hour), 90, ctx)
		if ctx.FastPathHits() != before+1 {
			t.Errorf("%s: fast-path hits %d -> %d, want +1", p.Name(), before, ctx.FastPathHits())
		}
	}
}

// TestFastPathsAtTraceHorizonEdge pins the trace-horizon edge the oracle
// padding exists for: jobs arriving in the trace's final hour (and past the
// horizon) with the full 24 h window must decide identically with and
// without fast paths, where every slot query clamps to the last value.
func TestFastPathsAtTraceHorizonEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 48)
	for i := range values {
		values[i] = 30 + 700*rng.Float64()
	}
	tr := carbon.MustTrace("edge", values)
	queues := map[workload.Queue]QueueInfo{
		workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: 90 * simtime.Minute},
		workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: 5 * simtime.Hour},
	}
	ctxFast := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
	ctxFast.EnableFastPaths()
	ctxRef := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}

	arrivals := []simtime.Time{
		47 * 60, 47*60 + 1, 47*60 + 30, 47*60 + 59, // final hour
		48 * 60, 48*60 + 30, 50*60 + 7, // past the horizon
	}
	for _, now := range arrivals {
		for _, length := range []simtime.Duration{simtime.Minute, 90 * simtime.Minute, 26 * simtime.Hour} {
			for _, q := range []workload.Queue{workload.QueueShort, workload.QueueLong} {
				job := workload.Job{ID: 1, Length: length, CPUs: 1, Queue: q}
				for _, p := range diffPolicies() {
					dFast := p.Decide(job, now, ctxFast)
					dRef := p.Decide(job, now, ctxRef)
					if !reflect.DeepEqual(dFast, dRef) {
						t.Fatalf("%s(queue=%d, len=%v, now=%v):\n fast = %+v\n ref  = %+v",
							p.Name(), q, length, now, dFast, dRef)
					}
				}
			}
		}
	}
	if ctxFast.FastPathHits() == 0 {
		t.Error("horizon-edge arrivals never hit the fast path")
	}
}

// TestDecideAllocationBudgets pins the steady-state allocation behaviour
// the oracle layer buys: zero per decision for every policy. The
// suspend-resume ones return a plan borrowed from the Context's scratch
// (see Decision), so they allocate nothing either.
func TestDecideAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 72)
	for i := range values {
		values[i] = 30 + 700*rng.Float64()
	}
	ctx := testCtx(values, 90*simtime.Minute, 5*simtime.Hour)
	ctx.EnableFastPaths()
	job := longJob(5*simtime.Hour + 13*simtime.Minute)
	now := simtime.Time(90)
	for _, p := range diffPolicies() {
		for i := 0; i < 3; i++ { // warm scratch buffers and the rank window
			p.Decide(job, now, ctx)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Decide(job, now, ctx) }); allocs > 0 {
			t.Errorf("%s: %v allocs per Decide, want 0", p.Name(), allocs)
		}
	}
}
