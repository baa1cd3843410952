package cluster

import (
	"math"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
)

func testConfig(engine *sim.Engine, reserved int) Config {
	vals := make([]float64, 24*10)
	for i := range vals {
		vals[i] = 100
	}
	return Config{
		Engine:        engine,
		Carbon:        carbon.MustTrace("flat", vals),
		Pricing:       cloud.Pricing{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 0.2},
		Power:         cloud.Power{KWPerCPU: 0.01},
		ReservedNodes: reserved,
		BootDelay:     3 * simtime.Minute,
		IdleTimeout:   10 * simtime.Minute,
	}
}

// countByState tallies the fleet's nodes in state s by a full scan.
func countByState(m *Manager, s NodeState) int {
	n := 0
	for _, nd := range m.Nodes() {
		if nd.State == s {
			n++
		}
	}
	return n
}

func TestManagerValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := NewManager(Config{}); err == nil {
		t.Error("missing engine should error")
	}
	cfg := testConfig(e, -1)
	if _, err := NewManager(cfg); err == nil {
		t.Error("negative reserved should error")
	}
	cfg = testConfig(e, 0)
	cfg.EvictionRate = 1.5
	if _, err := NewManager(cfg); err == nil {
		t.Error("bad eviction rate should error")
	}
}

func TestReservedFleetPreexists(t *testing.T) {
	e := sim.NewEngine()
	m, err := NewManager(testConfig(e, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := countByState(m, Idle); got != 3 {
		t.Fatalf("idle reserved = %d", got)
	}
	n := m.Acquire(cloud.Reserved)
	if n == nil || n.Option != cloud.Reserved || n.State != Busy {
		t.Fatalf("Acquire = %+v", n)
	}
	if m.Acquire(cloud.OnDemand) != nil {
		t.Error("no on-demand nodes should exist yet")
	}
}

func TestLaunchBootDelayAndReadyCallback(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 0))
	readyAt := simtime.Time(-1)
	m.SetOnReady(func() { readyAt = e.Now() })
	n := m.Launch(cloud.OnDemand)
	if n.State != Provisioning {
		t.Fatalf("state = %v", n.State)
	}
	e.RunUntil(2 * simtime.Time(simtime.Minute))
	if n.State != Provisioning {
		t.Fatal("node ready too early")
	}
	e.RunUntil(5 * simtime.Time(simtime.Minute))
	if n.State != Idle {
		t.Fatalf("state after boot = %v", n.State)
	}
	if readyAt != simtime.Time(3*simtime.Minute) {
		t.Errorf("ready callback at %v", readyAt)
	}
}

func TestLaunchReservedPanics(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Launch(cloud.Reserved)
}

func TestIdleTimeoutTerminatesElasticOnly(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 1))
	od := m.Launch(cloud.OnDemand)
	e.RunUntil(simtime.Time(3 * simtime.Minute)) // boot completes
	// Idle for the full timeout: terminated at 3+10 min.
	e.RunUntil(simtime.Time(20 * simtime.Minute))
	if od.State != Terminated {
		t.Errorf("elastic node state = %v, want terminated", od.State)
	}
	if countByState(m, Idle) != 1 {
		t.Error("reserved node must survive idleness")
	}
}

func TestIdleTimerResetsOnReuse(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 0))
	n := m.Launch(cloud.OnDemand)
	e.RunUntil(simtime.Time(3 * simtime.Minute))
	// Occupy at minute 8 (before the idle deadline at 13).
	e.Schedule(simtime.Time(8*simtime.Minute), sim.PriorityStart, func() {
		got := m.Acquire(cloud.OnDemand)
		if got != n {
			t.Error("acquire should return the idle node")
		}
		m.Occupy(got, nil)
	})
	// Release at minute 30; node should then live until 40.
	e.Schedule(simtime.Time(30*simtime.Minute), sim.PriorityFinish, func() {
		m.ReleaseNode(n)
	})
	e.RunUntil(simtime.Time(35 * simtime.Minute))
	if n.State != Idle {
		t.Fatalf("node at 35min = %v, want idle", n.State)
	}
	e.RunUntil(simtime.Time(45 * simtime.Minute))
	if n.State != Terminated {
		t.Fatalf("node at 45min = %v, want terminated", n.State)
	}
}

func TestSpotInterruptionFiresHandler(t *testing.T) {
	e := sim.NewEngine()
	cfg := testConfig(e, 0)
	cfg.EvictionRate = 0.95
	cfg.Seed = 1
	m, _ := NewManager(cfg)
	n := m.Launch(cloud.Spot)
	interrupted := false
	e.RunUntil(simtime.Time(3 * simtime.Minute))
	got := m.Acquire(cloud.Spot)
	if got != n {
		t.Fatal("acquire failed")
	}
	m.Occupy(n, func(dead *Node) { interrupted = true })
	m.StartSpotClock(n, 10*simtime.Hour)
	e.Run()
	if !interrupted {
		t.Fatal("handler should fire at 95% hourly eviction")
	}
	if n.State != Terminated {
		t.Errorf("interrupted node state = %v", n.State)
	}
}

func TestStaleSpotClockIgnored(t *testing.T) {
	e := sim.NewEngine()
	cfg := testConfig(e, 0)
	cfg.EvictionRate = 0.95
	cfg.Seed = 1
	m, _ := NewManager(cfg)
	n := m.Launch(cloud.Spot)
	e.RunUntil(simtime.Time(3 * simtime.Minute))
	m.Acquire(cloud.Spot)
	firstInterrupted := false
	m.Occupy(n, func(*Node) { firstInterrupted = true })
	m.StartSpotClock(n, 10*simtime.Hour) // eviction sampled somewhere in 10h
	// First job finishes after 30 min, long before any whole-hour check.
	e.Schedule(simtime.Time(33*simtime.Minute), sim.PriorityFinish, func() {
		m.ReleaseNode(n)
	})
	// Second job occupies the same node; the stale clock must not kill it.
	secondInterrupted := false
	e.Schedule(simtime.Time(35*simtime.Minute), sim.PriorityStart, func() {
		if got := m.Acquire(cloud.Spot); got != n {
			t.Error("second acquire failed")
			return
		}
		m.Occupy(n, func(*Node) { secondInterrupted = true })
		// No new spot clock: this occupancy must be immune to the old one.
	})
	e.Schedule(simtime.Time(20*simtime.Hour), sim.PriorityFinish, func() {
		if n.State == Busy {
			m.ReleaseNode(n)
		}
	})
	e.Run()
	if firstInterrupted {
		t.Error("first job finished before any eviction check")
	}
	if secondInterrupted {
		t.Error("stale spot clock killed the second occupancy")
	}
}

func TestBillWholeLifetimes(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 2))
	n := m.Launch(cloud.OnDemand)
	e.RunUntil(simtime.Time(3 * simtime.Minute))
	m.Acquire(cloud.OnDemand)
	m.Occupy(n, nil)
	e.Schedule(simtime.Time(63*simtime.Minute), sim.PriorityFinish, func() { m.ReleaseNode(n) })
	e.RunUntil(simtime.Time(2 * simtime.Hour)) // idle timeout kills it at 73 min
	cost, carbonG := m.Bill(10 * simtime.Hour)
	// Reserved upfront: 2 × 10 h × $0.40 = $8.
	// Elastic: lifetime 0→73 min (3 boot + 60 busy + 10 idle) at $1/h.
	wantCost := 8 + 73.0/60
	if math.Abs(cost-wantCost) > 1e-9 {
		t.Errorf("cost = %v, want %v", cost, wantCost)
	}
	// Elastic carbon: 73 min at CI 100, 0.01 kW.
	wantCarbon := 100 * 0.01 * 73.0 / 60
	if math.Abs(carbonG-wantCarbon) > 1e-9 {
		t.Errorf("carbon = %v, want %v", carbonG, wantCarbon)
	}
	if n.Uptime(0) != 73*simtime.Minute {
		t.Errorf("uptime = %v", n.Uptime(0))
	}
}

func TestShutdownClosesBilling(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 1))
	m.Launch(cloud.OnDemand)
	e.RunUntil(simtime.Time(simtime.Minute))
	m.Shutdown()
	for _, n := range m.Nodes() {
		if n.Option != cloud.Reserved && n.State != Terminated {
			t.Errorf("node %d state %v after shutdown", n.ID, n.State)
		}
	}
}

func TestNodeStateString(t *testing.T) {
	names := map[NodeState]string{
		Provisioning: "provisioning", Idle: "idle", Busy: "busy", Terminated: "terminated",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
	if NodeState(9).String() != "state(9)" {
		t.Error("unknown state name")
	}
}

func TestReleasePanicsOnNonBusy(t *testing.T) {
	e := sim.NewEngine()
	m, _ := NewManager(testConfig(e, 1))
	n := m.Nodes()[0]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReleaseNode(n)
}
