package cluster

import (
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
)

// scanIdle is the reference Acquire must agree with: the lowest-ID idle
// node of the first listed option that has one, found by a fleet scan.
func scanIdle(m *Manager, prefs []cloud.Option) *Node {
	for _, opt := range prefs {
		for _, n := range m.Nodes() {
			if n.State == Idle && n.Option == opt {
				return n
			}
		}
	}
	return nil
}

// checkFleet compares the idle index and the boot counter with full
// scans: every idle node sits in its option's index exactly once, the
// index is in heap order, and Provisioning equals the scanned count.
func checkFleet(t *testing.T, m *Manager, step int, op string) {
	t.Helper()
	for _, opt := range []cloud.Option{cloud.OnDemand, cloud.Reserved, cloud.Spot} {
		h := m.idle[opt]
		for c := 1; c < len(h); c++ {
			if h[(c-1)/2] > h[c] {
				t.Fatalf("step %d (%s): %v index out of heap order at %d: %v", step, op, opt, c, h)
			}
		}
		indexed := make(map[int]bool)
		for _, i := range h {
			n := m.nodes[i]
			if n.State != Idle {
				continue // left Idle; pruned lazily
			}
			if n.Option != opt || indexed[i] {
				t.Fatalf("step %d (%s): idle node %d (%v) misfiled or duplicated in the %v index", step, op, i, n.Option, opt)
			}
			indexed[i] = true
		}
		booting := 0
		for _, n := range m.Nodes() {
			if n.Option == opt && n.State == Idle && !indexed[n.ID] {
				t.Fatalf("step %d (%s): idle node %d missing from the %v index", step, op, n.ID, opt)
			}
			if n.Option == opt && n.State == Provisioning {
				booting++
			}
		}
		if got := m.Provisioning(opt); got != booting {
			t.Fatalf("step %d (%s): Provisioning(%v) = %d, scan counts %d", step, op, opt, got, booting)
		}
	}
}

// walkFleet drives a seeded random mix of launches, acquisitions under
// mixed preference lists, releases, engine steps (boots, idle timeouts,
// spot evictions) and shutdowns, checking the fleet after every step.
func walkFleet(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	cfg := testConfig(e, rng.Intn(6))
	cfg.EvictionRate = 0.5
	cfg.Seed = seed
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefLists := [][]cloud.Option{
		{cloud.Reserved}, {cloud.OnDemand}, {cloud.Spot},
		{cloud.Reserved, cloud.OnDemand}, {cloud.OnDemand, cloud.Reserved},
		{cloud.Spot, cloud.OnDemand}, {cloud.Spot, cloud.Reserved, cloud.OnDemand},
		{cloud.OnDemand, cloud.Spot, cloud.Reserved},
	}
	var busy []*Node
	step := 0
	acquire := func(op string) {
		prefs := prefLists[rng.Intn(len(prefLists))]
		want := scanIdle(m, prefs)
		got := m.Acquire(prefs...)
		if got != want {
			t.Fatalf("step %d (%s): Acquire(%v) = %v, scan picks %v", step, op, prefs, nodeID(got), nodeID(want))
		}
		if got == nil {
			return
		}
		m.Occupy(got, nil)
		m.StartSpotClock(got, simtime.Duration(1+rng.Intn(180))*simtime.Minute)
		busy = append(busy, got)
	}
	// Claim capacity the instant it boots too, as the batch layer does.
	m.SetOnReady(func() {
		if rng.Intn(2) == 0 {
			acquire("ready")
		}
	})
	for ; step < steps; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 4:
			op = "launch"
			opt := cloud.OnDemand
			if rng.Intn(2) == 0 {
				opt = cloud.Spot
			}
			m.Launch(opt)
		case r < 10:
			op = "acquire"
			acquire(op)
		case r < 14:
			op = "release"
			// Drop nodes a spot eviction or Shutdown already ended.
			live := busy[:0]
			for _, n := range busy {
				if n.State == Busy {
					live = append(live, n)
				}
			}
			busy = live
			if len(busy) > 0 {
				i := rng.Intn(len(busy))
				m.ReleaseNode(busy[i])
				busy = append(busy[:i], busy[i+1:]...)
			}
		case r < 19:
			op = "step"
			e.RunUntil(e.Now().Add(simtime.Duration(rng.Intn(8)) * simtime.Minute))
		default:
			op = "shutdown"
			m.Shutdown()
		}
		checkFleet(t, m, step, op)
	}
}

func nodeID(n *Node) any {
	if n == nil {
		return nil
	}
	return n.ID
}

// FuzzIdleIndexMatchesScan holds the per-option idle index to the fleet
// scan it replaced: any other idle node handed out, a stale entry served,
// or a boot miscounted fails the walk.
func FuzzIdleIndexMatchesScan(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		walkFleet(t, seed, 1500)
	})
}
