package runcache

import (
	"context"
	"encoding/hex"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/workload"
)

// The decision-plan tier.
//
// The result cache (cache.go) shares work only between byte-identical
// cells. The plan tier shares the *decide phase* across cells that differ
// in accounting knobs only — a 20-point reserved sweep, a carbon-tax sweep
// — keyed by core.Config.DecisionFingerprint: the first cell decides every
// job and publishes the start-time column as an immutable
// core.DecisionPlan; every later cell replays the sweep-line and
// accounting phases over the shared plan under its own knobs
// (core.RunWithPlan), bit-identical to a full run. Like the result tiers,
// plans are single-flight in memory (the same flights, flight.go),
// persisted to the cache directory under the plan codec, and errors are
// never cached. A plan that fails to decode or replay is discarded and the
// cell recomputes from scratch — a bad artifact can cost time, never
// correctness.

// computePlanned runs one cell the result tiers missed, serving its decide
// phase from the plan tier when the configuration has a decision
// projection. The returned Outcome is Computed when the cell decided for
// itself (including priming the plan tier), PlanHit/PlanDiskHit when a
// cached plan served the decide phase and only the replay ran. A config
// with a decision projection is direct-eligible, so its decide phase
// either yields a plan or fails as core.Run would; there is no engine
// re-run to fall back to.
func (c *Cache) computePlanned(ctx context.Context, canon core.Config, jobs *workload.Trace) (*metrics.Result, Outcome, error) {
	dfp, ok := canon.DecisionFingerprint(jobs)
	if !ok {
		res, err := core.RunContext(ctx, canon, jobs)
		return res, Computed, err
	}
	plan, served, err := c.planFor(ctx, dfp, canon, jobs)
	if err != nil {
		// A decide-phase failure is exactly the error core.Run would
		// return for this cell; surface it (its failed plan flight was
		// retired, so it is never cached).
		return nil, Computed, err
	}
	res, err := core.RunWithPlan(ctx, canon, jobs, plan)
	if err != nil {
		if ctx.Err() != nil {
			return nil, served, err
		}
		// A plan the replay rejects (shape skew from a stale or corrupt
		// artifact) costs a recompute, never correctness.
		c.Logf("runcache: replaying plan %s: %v (recomputing)", hex.EncodeToString(dfp[:8]), err)
		res, rerr := core.RunContext(ctx, canon, jobs)
		return res, Computed, rerr
	}
	return res, served, nil
}

// planFor serves one decision fingerprint through the plan tier: memory
// (single-flight) → disk → decide. The outcome is PlanHit for any caller
// served by a flight another cell started (completed or in flight —
// either way this cell skipped its decide phase), PlanDiskHit when this
// caller's flight decoded the plan from disk, Computed when it ran the
// decide phase itself.
func (c *Cache) planFor(ctx context.Context, dfp [32]byte, canon core.Config, jobs *workload.Trace) (*core.DecisionPlan, Outcome, error) {
	plan, outcome, err := c.plans.do(ctx, dfp, func(ctx context.Context) (*core.DecisionPlan, Outcome, error) {
		dir, _ := c.tiers()
		if plan := loadEntry(c, dir, dfp, planSuffix, core.DecodeDecisionPlan); plan != nil {
			return plan, PlanDiskHit, nil
		}
		plan, err := core.DecidePlan(ctx, canon, jobs)
		if err == nil && dir != "" {
			c.storeEntry(dir, dfp, planSuffix, core.EncodeDecisionPlan(plan))
		}
		return plan, Computed, err
	})
	if outcome == Hit || outcome == Dedup {
		outcome = PlanHit
	}
	return plan, outcome, err
}
