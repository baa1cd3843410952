package policy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// referenceGreedyMarginal is GreedyMarginal.Allocate as it stood before
// its candidates moved into Context scratch: fresh grants and candidates
// per call, ordered by sort.Slice. Its comparator ties on equal job IDs,
// so it is the reference only for views with distinct IDs, which is what
// the scheduler passes.
func referenceGreedyMarginal(a GreedyMarginal, jobs []ElasticJobView, now simtime.Time, capacity int, ctx *Context) []int {
	thresh := a.ScaleThreshold
	if thresh <= 0 {
		thresh = 0.75
	}
	preempt := a.PreemptAbove
	if preempt <= 0 {
		preempt = 1.25
	}
	g := greenness(ctx, now)

	grants := make([]int, len(jobs))
	type cand struct {
		job   int
		r     int
		value float64
	}
	var cands []cand
	for i, v := range jobs {
		base := v.MinReplicas
		if base < 1 {
			base = 1
		}
		if v.MinReplicas == 0 && g >= preempt {
			grants[i] = 0
			continue
		}
		grants[i] = base
		for r := base; r < v.MaxReplicas; r++ {
			m := v.Curve[r]
			if m < thresh*g {
				break
			}
			cands = append(cands, cand{job: i, r: r, value: m / float64(v.CPUs)})
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].value != cands[y].value {
			return cands[x].value > cands[y].value
		}
		if cands[x].job != cands[y].job {
			return jobs[cands[x].job].ID < jobs[cands[y].job].ID
		}
		return cands[x].r < cands[y].r
	})
	budget := capacity
	for _, c := range cands {
		w := jobs[c.job].CPUs
		if capacity >= 0 {
			if budget < w {
				continue
			}
			budget -= w
		}
		grants[c.job]++
	}
	return grants
}

// allocTrace is a two-week CI series with a strong daily swing, so the
// hours of one run span both clean hours (scale-ups) and dirty ones
// (preemptible jobs suspend).
func allocTrace() *carbon.Trace {
	rng := rand.New(rand.NewSource(41))
	values := make([]float64, 24*14)
	for h := range values {
		values[h] = 100 + 300*float64((h+6)%24)/23 + 50*rng.Float64()
	}
	return carbon.MustTrace("alloc", values)
}

// randomViews draws n views with distinct, shuffled IDs. Marginals come
// from a four-value set and widths from {1, 2, 4}, so equal marginals per
// CPU across jobs are common.
func randomViews(rng *rand.Rand, n int) []ElasticJobView {
	levels := []float64{1, 0.75, 0.5, 0.25}
	views := make([]ElasticJobView, n)
	ids := rng.Perm(4 * n)
	for i := range views {
		lo := rng.Intn(3)
		hi := max(lo+rng.Intn(5), 1)
		curve := make(workload.ScaleCurve, hi)
		curve[0] = 1
		level := 0
		for k := 1; k < hi; k++ {
			level += rng.Intn(2)
			curve[k] = levels[min(level, len(levels)-1)]
		}
		views[i] = ElasticJobView{
			ID:          ids[i],
			Queue:       workload.Queue(rng.Intn(2)),
			CPUs:        []int{1, 2, 4}[rng.Intn(3)],
			ElasticSpec: workload.ElasticSpec{MinReplicas: lo, MaxReplicas: hi, Curve: curve},
			Remaining:   float64(1 + rng.Intn(600)),
		}
		views[i].Replicas = views[i].MinReplicas
		if err := views[i].ElasticSpec.Validate(); err != nil {
			panic(err)
		}
	}
	return views
}

// TestGreedyMarginalMatchesReference runs Greedy-Marginal against the
// sort.Slice reference on random views, one Context reused throughout so
// every call starts from the previous call's scratch. Hours are drawn
// over the whole trace, dirty ones included, with both default and tight
// thresholds and capacities of −1 (unbounded), 0 and a few CPUs.
func TestGreedyMarginalMatchesReference(t *testing.T) {
	tr := allocTrace()
	ctx := &Context{CIS: carbon.NewPerfectService(tr)}
	rng := rand.New(rand.NewSource(5))
	allocators := []GreedyMarginal{{}, {ScaleThreshold: 1.0, PreemptAbove: 1.04}, {ScaleThreshold: 0.3, PreemptAbove: 0.9}}
	preempted := 0
	for i := 0; i < 3000; i++ {
		a := allocators[rng.Intn(len(allocators))]
		views := randomViews(rng, rng.Intn(24))
		now := simtime.Time(rng.Intn(24*12)) * simtime.Time(simtime.Hour)
		capacity := []int{-1, 0, 1 + rng.Intn(8), 1 + rng.Intn(64)}[rng.Intn(4)]
		want := referenceGreedyMarginal(a, views, now, capacity, ctx)
		got := a.Allocate(views, now, capacity, ctx)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%+v, capacity %d, hour %d): grants %v, reference %v\nviews %+v", i, a, capacity, now.HourIndex(), got, want, views)
		}
		for j, v := range views {
			if v.MinReplicas == 0 && got[j] == 0 {
				preempted++
			}
		}
	}
	if preempted == 0 {
		t.Fatal("no case suspended a preemptible job: the fixture lost its dirty hours")
	}
}

// TestStaticAllocGrantsBase pins Static-Min to the base width.
func TestStaticAllocGrantsBase(t *testing.T) {
	ctx := &Context{}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		views := randomViews(rng, rng.Intn(16))
		got := StaticAlloc{}.Allocate(views, 0, rng.Intn(10)-1, ctx)
		for j, v := range views {
			if want := max(v.MinReplicas, 1); got[j] != want {
				t.Fatalf("case %d: view %d (min %d) granted %d, want %d", i, j, v.MinReplicas, got[j], want)
			}
		}
	}
}

// TestCompareMarginalStrictTotalOrder checks Greedy-Marginal's comparator
// over random candidate sets heavy in equal values and equal IDs, NaN
// values included: it is irreflexive, antisymmetric and transitive, and
// it ties only a candidate with itself, so any correct sort yields one
// order.
func TestCompareMarginalStrictTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for round := 0; round < 200; round++ {
		cands := make([]marginalCand, 2+rng.Intn(12))
		for i := range cands {
			cands[i] = marginalCand{
				value: []float64{0.25, 0.5, 1, 2, math.NaN()}[rng.Intn(5)] / float64(1+rng.Intn(2)),
				id:    rng.Intn(3),
				view:  rng.Intn(3),
				r:     rng.Intn(3),
			}
		}
		for _, a := range cands {
			if compareMarginal(a, a) != 0 {
				t.Fatalf("%+v compares unequal to itself", a)
			}
			for _, b := range cands {
				ab, ba := sign(compareMarginal(a, b)), sign(compareMarginal(b, a))
				if ab != -ba {
					t.Fatalf("not antisymmetric: %+v vs %+v gives %d, reverse %d", a, b, ab, ba)
				}
				if ab == 0 && !sameCand(a, b) {
					t.Fatalf("distinct candidates %+v and %+v tie", a, b)
				}
				for _, c := range cands {
					if ab < 0 && compareMarginal(b, c) < 0 && compareMarginal(a, c) >= 0 {
						t.Fatalf("not transitive: %+v < %+v < %+v but not %+v < %+v", a, b, c, a, c)
					}
				}
			}
		}
	}
}

// sameCand reports whether a and b are the same candidate, counting two
// NaN values as equal.
func sameCand(a, b marginalCand) bool {
	sameValue := a.value == b.value || (math.IsNaN(a.value) && math.IsNaN(b.value))
	return sameValue && a.id == b.id && a.view == b.view && a.r == b.r
}

// TestAllocatorsDoNotAllocate holds both allocators to zero allocations
// per call once a warm-up call has sized the Context's scratch.
func TestAllocatorsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := allocTrace()
	views := randomViews(rand.New(rand.NewSource(8)), 40)
	for _, a := range []ElasticAllocator{StaticAlloc{}, GreedyMarginal{}, GreedyMarginal{ScaleThreshold: 0.3}} {
		ctx := &Context{CIS: carbon.NewPerfectService(tr)}
		// A clean hour, so Greedy-Marginal sorts candidates.
		now := simtime.Time(18 * simtime.Hour)
		a.Allocate(views, now, -1, ctx)
		if n := testing.AllocsPerRun(50, func() { a.Allocate(views, now, -1, ctx) }); n != 0 {
			t.Errorf("%s (%+v): %v allocations per call, want 0", a.Name(), a, n)
		}
	}
}
