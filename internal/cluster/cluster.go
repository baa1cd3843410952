// Package cluster models an elastic cloud cluster the way the paper's
// AWS ParallelCluster prototype sees it: individual nodes with boot
// delays, idle timeouts, per-purchase-option billing over the *entire*
// instance lifetime (including initiation and termination, §5), and spot
// interruption. It complements internal/core — the GAIA-Simulator — which
// deliberately abstracts these overheads away; comparing the two
// reproduces the paper's simulator-vs-prototype methodology.
package cluster

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
)

// NodeState is a node's lifecycle state.
type NodeState int

// Node lifecycle: Provisioning (booting) → Idle ⇄ Busy → Terminated.
const (
	Provisioning NodeState = iota
	Idle
	Busy
	Terminated
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case Provisioning:
		return "provisioning"
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Node is one cloud instance. The paper normalizes resources to 1-CPU
// units, so a node hosts exactly one unit of one job at a time.
type Node struct {
	ID     int
	Option cloud.Option
	State  NodeState
	// LaunchedAt is when the launch request was issued (billing starts
	// here — the paper accounts the entire instance time).
	LaunchedAt simtime.Time
	// ReadyAt is when the node finished booting.
	ReadyAt simtime.Time
	// TerminatedAt closes the billing interval.
	TerminatedAt simtime.Time
	// idleSince tracks the scale-down timer.
	idleSince simtime.Time
	// epoch increments on every occupancy, so stale spot-interruption
	// events (sampled for a previous job on this node) can be discarded.
	epoch int
}

// Uptime returns the billed duration of the node as of t (or its final
// lifetime when terminated).
func (n *Node) Uptime(t simtime.Time) simtime.Duration {
	end := t
	if n.State == Terminated {
		end = n.TerminatedAt
	}
	return end.Sub(n.LaunchedAt)
}

// Config parameterizes the elastic cluster manager.
type Config struct {
	// Engine drives all node lifecycle events.
	Engine *sim.Engine
	// Carbon is the realized CI trace for node carbon accounting.
	Carbon *carbon.Trace
	// Pricing and Power follow the cloud market model.
	Pricing cloud.Pricing
	Power   cloud.Power
	// ReservedNodes is the pre-paid fixed fleet, present from time 0.
	ReservedNodes int
	// BootDelay is the instance initiation time (ParallelCluster nodes
	// take on the order of minutes to join the scheduler).
	BootDelay simtime.Duration
	// IdleTimeout is the elastic scale-down timer: an on-demand or spot
	// node idle this long is terminated (ParallelCluster's
	// scaledown_idletime, default 10 min).
	IdleTimeout simtime.Duration
	// EvictionRate is the hourly spot interruption probability.
	EvictionRate float64
	// Seed drives the spot interruption process.
	Seed int64
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Pricing == (cloud.Pricing{}) {
		c.Pricing = cloud.DefaultPricing()
	}
	if c.Power == (cloud.Power{}) {
		c.Power = cloud.DefaultPower()
	}
	if c.BootDelay == 0 {
		c.BootDelay = 3 * simtime.Minute
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * simtime.Minute
	}
	return c
}

// Manager owns the node fleet. All methods must be called from the event
// engine's goroutine (the whole simulation is single-threaded and
// deterministic).
type Manager struct {
	cfg Config
	// nodes is the fleet in launch order; a node's ID is its index.
	nodes []*Node
	// idle holds, per purchase option, the indices of that option's idle
	// nodes; booting counts its provisioning nodes.
	idle    [3]idleIndex
	booting [3]int
	evict   *cloud.EvictionModel
	nextID  int
	onReady func()
	// onInterrupt notifies the batch layer that a busy spot node died;
	// the occupying allocation is already released.
	onInterrupt func(node *Node)
	occupants   map[int]func(*Node) // busy node ID → interruption handler
}

// NewManager creates the fleet manager and provisions the reserved nodes
// (ready immediately at time 0: the fixed fleet pre-exists the run).
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, fmt.Errorf("cluster: config needs an engine")
	}
	if cfg.Carbon == nil {
		return nil, fmt.Errorf("cluster: config needs a carbon trace")
	}
	if err := cfg.Pricing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}
	if cfg.ReservedNodes < 0 {
		return nil, fmt.Errorf("cluster: reserved nodes %d must be non-negative", cfg.ReservedNodes)
	}
	evict, err := cloud.NewEvictionModel(cfg.EvictionRate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, evict: evict, occupants: make(map[int]func(*Node))}
	for i := 0; i < cfg.ReservedNodes; i++ {
		n := &Node{ID: m.nextID, Option: cloud.Reserved, State: Idle}
		m.nextID++
		m.nodes = append(m.nodes, n)
		m.idle[cloud.Reserved].push(n.ID)
	}
	return m, nil
}

// SetOnReady registers the callback fired whenever a provisioning node
// becomes available (the batch layer retries its pending queue).
func (m *Manager) SetOnReady(fn func()) { m.onReady = fn }

// Nodes returns the full fleet (all states).
func (m *Manager) Nodes() []*Node { return m.nodes }

// Provisioning returns how many nodes of the option are still booting.
func (m *Manager) Provisioning(opt cloud.Option) int { return m.booting[opt] }

// Acquire claims one idle node, preferring the options in order: the
// lowest-ID idle node of the first listed option that has one. It returns
// nil when no idle node of any listed option exists.
func (m *Manager) Acquire(prefs ...cloud.Option) *Node {
	for _, opt := range prefs {
		h := &m.idle[opt]
		// Prune entries whose node left Idle (terminated by the idle
		// timeout or Shutdown) since it was pushed.
		for len(*h) > 0 && m.nodes[(*h)[0]].State != Idle {
			h.pop()
		}
		if len(*h) > 0 {
			nd := m.nodes[h.pop()]
			nd.State = Busy
			return nd
		}
	}
	return nil
}

// setIdle moves a node to Idle, arms its scale-down timer and indexes it.
func (m *Manager) setIdle(n *Node) {
	n.State = Idle
	n.idleSince = m.cfg.Engine.Now()
	m.scheduleIdleCheck(n)
	m.idle[n.Option].push(n.ID)
}

// Launch starts provisioning a fresh on-demand or spot node; after the
// boot delay it becomes idle and the ready callback fires. Reserved nodes
// cannot be launched (the fixed fleet exists from the start).
func (m *Manager) Launch(opt cloud.Option) *Node {
	if opt == cloud.Reserved {
		panic("cluster: reserved nodes are fixed, not launched")
	}
	now := m.cfg.Engine.Now()
	n := &Node{
		ID:         m.nextID,
		Option:     opt,
		State:      Provisioning,
		LaunchedAt: now,
		ReadyAt:    now.Add(m.cfg.BootDelay),
	}
	m.nextID++
	m.nodes = append(m.nodes, n)
	m.booting[opt]++
	m.cfg.Engine.Schedule(n.ReadyAt, sim.PriorityFinish, func() {
		if n.State != Provisioning {
			return
		}
		m.booting[opt]--
		m.setIdle(n)
		if m.onReady != nil {
			m.onReady()
		}
	})
	return n
}

// Occupy marks an idle/just-acquired node busy with an interruption
// handler (invoked if the node is a spot instance that gets revoked while
// busy). Use after Acquire or when a launched node is claimed.
func (m *Manager) Occupy(n *Node, onInterrupt func(*Node)) {
	if n.State != Busy {
		panic(fmt.Sprintf("cluster: occupying node %d in state %v", n.ID, n.State))
	}
	n.epoch++
	if n.Option == cloud.Spot {
		m.occupants[n.ID] = onInterrupt
	}
}

// StartSpotClock samples this busy spot node's interruption for a job of
// the given remaining length; if interrupted, the node terminates at the
// sampled instant and the handler fires.
func (m *Manager) StartSpotClock(n *Node, length simtime.Duration) {
	if n.Option != cloud.Spot {
		return
	}
	at, ev := m.evict.SampleEviction(m.cfg.Engine.Now(), length)
	if !ev {
		return
	}
	epoch := n.epoch
	m.cfg.Engine.Schedule(at, sim.PriorityEvict, func() {
		if n.State != Busy || n.epoch != epoch {
			return // that occupancy already ended; stale clock
		}
		handler := m.occupants[n.ID]
		delete(m.occupants, n.ID)
		m.terminate(n)
		if handler != nil {
			handler(n)
		}
	})
}

// ReleaseNode returns a busy node to idle and arms its scale-down timer.
func (m *Manager) ReleaseNode(n *Node) {
	if n.State != Busy {
		panic(fmt.Sprintf("cluster: releasing node %d in state %v", n.ID, n.State))
	}
	delete(m.occupants, n.ID)
	m.setIdle(n)
}

// scheduleIdleCheck terminates elastic nodes that stay idle past the
// timeout. Reserved nodes are never terminated (they are pre-paid).
func (m *Manager) scheduleIdleCheck(n *Node) {
	if n.Option == cloud.Reserved {
		return
	}
	deadline := n.idleSince.Add(m.cfg.IdleTimeout)
	idleMark := n.idleSince
	m.cfg.Engine.Schedule(deadline, sim.PriorityLow, func() {
		if n.State == Idle && n.idleSince == idleMark {
			m.terminate(n)
		}
	})
}

// terminate ends a node's lifetime. An idle node's index entry stays
// behind and is pruned when Acquire reaches it.
func (m *Manager) terminate(n *Node) {
	if n.State == Provisioning {
		m.booting[n.Option]--
	}
	n.State = Terminated
	n.TerminatedAt = m.cfg.Engine.Now()
}

// Shutdown terminates every live elastic node and closes billing at the
// current instant (end of run). Reserved nodes stay up; their cost is the
// horizon-long upfront payment.
func (m *Manager) Shutdown() {
	for _, n := range m.nodes {
		if n.Option != cloud.Reserved && n.State != Terminated {
			m.terminate(n)
		}
	}
}

// Bill computes the fleet's dollar cost and carbon up to the accounting
// horizon. Elastic nodes are billed and powered for their entire lifetime
// — boot, busy AND idle time — which is exactly the overhead the
// GAIA-Simulator ignores (§5). Reserved nodes are billed upfront for the
// whole horizon; following the simulator's convention they are powered
// off while idle, so their carbon accrues only when busy (tracked by the
// batch layer, not here).
func (m *Manager) Bill(horizon simtime.Duration) (cost, carbonG float64) {
	cost = m.cfg.Pricing.ReservedUpfront(m.cfg.ReservedNodes, horizon.Hours())
	for _, n := range m.nodes {
		if n.Option == cloud.Reserved {
			continue
		}
		end := n.TerminatedAt
		if n.State != Terminated {
			end = simtime.Time(horizon)
		}
		up := end.Sub(n.LaunchedAt)
		cost += up.Hours() * m.cfg.Pricing.HourlyRate(n.Option)
		iv := simtime.Interval{Start: n.LaunchedAt, End: end}
		carbonG += m.cfg.Power.Carbon(m.cfg.Carbon.Integral(iv), 1)
	}
	return cost, carbonG
}

// idleIndex is a binary min-heap of fleet indices. Only Acquire removes a
// live idle node, always the minimum, and a terminated node never returns
// to Idle, so an index is never present twice while its node is idle.
type idleIndex []int

func (h *idleIndex) push(i int) {
	*h = append(*h, i)
	s := *h
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if s[p] <= s[c] {
			break
		}
		s[p], s[c] = s[c], s[p]
		c = p
	}
}

func (h *idleIndex) pop() int {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1] < s[c] {
			c++
		}
		if s[p] <= s[c] {
			break
		}
		s[p], s[c] = s[c], s[p]
		p = c
	}
	*h = s
	return top
}
