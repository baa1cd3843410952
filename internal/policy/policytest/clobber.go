// Package policytest holds policy wrappers for the tests of packages that
// consume policy decisions.
package policytest

import (
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
