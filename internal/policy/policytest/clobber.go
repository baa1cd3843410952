// Package policytest holds policy and allocator wrappers for the tests of
// packages that consume policy decisions and elastic grants.
package policytest

import (
	"math"
	"sync"

	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// invalid is the window Clobbering writes over a spent plan: empty, and
// before any arrival.
var invalid = simtime.Interval{Start: -2, End: -3}

// Clobbering wraps a policy to enforce the borrowed-plan contract of
// policy.Decision: a plan is valid only until the next Decide on the
// Context it came from. Before each Decide it overwrites every window of
// the plan it returned from that Context's previous Decide with an empty
// window that precedes every arrival, then returns the inner policy's
// decision unchanged. A consumer that copies plans before deciding again
// behaves exactly as with the inner policy; one that keeps a plan reads
// invalid windows. It is safe for concurrent use on distinct Contexts.
type Clobbering struct {
	Inner policy.Policy

	mu   sync.Mutex
	last map[*policy.Context][]simtime.Interval
}

// Clobber wraps p.
func Clobber(p policy.Policy) *Clobbering { return &Clobbering{Inner: p} }

// Name implements policy.Policy with the inner policy's name.
func (c *Clobbering) Name() string { return c.Inner.Name() }

// Decide implements policy.Policy.
func (c *Clobbering) Decide(job workload.Job, now simtime.Time, ctx *policy.Context) policy.Decision {
	c.mu.Lock()
	for i := range c.last[ctx] {
		c.last[ctx][i] = invalid
	}
	c.mu.Unlock()
	d := c.Inner.Decide(job, now, ctx)
	c.mu.Lock()
	if c.last == nil {
		c.last = make(map[*policy.Context][]simtime.Interval)
	}
	c.last[ctx] = d.Plan
	c.mu.Unlock()
	return d
}

// clobberGrant is the grant ClobberingAllocator writes over spent grants:
// above every job's MaxReplicas, so a scheduler that read one would scale
// the job to its maximum.
const clobberGrant = math.MaxInt32

// ClobberingAllocator wraps an elastic allocator to enforce the
// borrowed-grants contract of policy.ElasticAllocator: grants are valid
// only until the next Allocate on the Context they came from. Each call
// returns a copy of the inner allocator's grants in storage of the
// wrapper's own, and before each Allocate it overwrites the copy it
// returned from that Context's previous Allocate with clobberGrant. A
// consumer that is done with its grants before allocating again behaves
// exactly as with the inner allocator; one that keeps them reads
// scale-ups that the inner allocator never granted, even where the inner
// allocator's own scratch would have masked the stale read. It is safe
// for concurrent use on distinct Contexts.
type ClobberingAllocator struct {
	Inner policy.ElasticAllocator

	mu   sync.Mutex
	last map[*policy.Context][]int
}

// ClobberAllocator wraps a.
func ClobberAllocator(a policy.ElasticAllocator) *ClobberingAllocator {
	return &ClobberingAllocator{Inner: a}
}

// Name implements policy.ElasticAllocator with the inner allocator's name.
func (c *ClobberingAllocator) Name() string { return c.Inner.Name() }

// Allocate implements policy.ElasticAllocator.
func (c *ClobberingAllocator) Allocate(jobs []policy.ElasticJobView, now simtime.Time, capacity int, ctx *policy.Context) []int {
	c.mu.Lock()
	for i := range c.last[ctx] {
		c.last[ctx][i] = clobberGrant
	}
	c.mu.Unlock()
	grants := append([]int(nil), c.Inner.Allocate(jobs, now, capacity, ctx)...)
	c.mu.Lock()
	if c.last == nil {
		c.last = make(map[*policy.Context][]int)
	}
	c.last[ctx] = grants
	c.mu.Unlock()
	return grants
}
