package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// The decision-plan cache seam.
//
// The evaluation's dominant sweeps vary accounting knobs — reserved
// capacity (Figures 8-12, 17), prices, a carbon tax (x07) — while the job
// start-time decisions are identical across every cell: for direct-eligible
// configurations a decision depends only on (policy, CIS trace, queue
// ladder and waits, average-length estimates, workload), never on Reserved
// or any price. DecidePlan runs the direct path's phase 1 alone and returns
// the decisions as a compact columnar artifact; RunWithPlan replays phases
// 2-3 (sweep-line + accounting fan-out) over a cached plan, skipping the
// decide phase entirely. Config.DecisionFingerprint (fingerprint.go) is the
// content address that tells cache layers which configurations may share a
// plan. DecidePlan(cfg) followed by RunWithPlan(cfg', plan) for any cfg'
// that decision-fingerprints equal to cfg is bit-identical to Run(cfg').

// A DecisionPlan is the artifact of the decide phase: one start time per
// job of the (normalized) trace, in job-ID order. The decisions are
// immutable after creation; plans are shared across concurrent replays.
type DecisionPlan struct {
	starts []simtime.Time
	// memo holds what replays of this plan share (replayMemo): the sweep's
	// endpoint orders, keyed by trace identity, and the schedule columns,
	// keyed by (realized carbon trace, power, queue bounds) as well. A
	// sweep replaying this plan sorts its endpoints once and integrates
	// carbon once per key, not once per cell. Built lazily on first
	// replay and excluded from the encoded artifact (a decoded plan
	// rebuilds it on first use).
	memo atomic.Pointer[replayMemo]
}

// NumJobs returns how many jobs the plan covers.
func (p *DecisionPlan) NumJobs() int { return len(p.starts) }

// ErrNoPlan reports that a configuration cannot be served by the decision
// plan seam — it is not direct-eligible — and the caller must use Run.
var ErrNoPlan = errors.New("core: configuration has no decision plan")

// PlanCodecVersion identifies the binary layout EncodeDecisionPlan writes.
// It participates in on-disk cache entry names: bump it whenever the plan
// gains, loses or reorders state, and old entries simply never match.
const PlanCodecVersion = 2

// planMagic opens every encoded plan. The trailing byte is a format
// generation separate from PlanCodecVersion, mirroring the accumulator
// codec's container convention (internal/metrics/codec.go).
var planMagic = [8]byte{'G', 'A', 'I', 'A', 'P', 'L', 'N', 1}

// EncodeDecisionPlan serializes a plan into a self-contained blob:
//
//	magic [8] | codec version u64 | nJobs u64
//	| starts (u64 LE each)
//	| crc32-IEEE of everything above (u32 LE)
//
// Integers are little-endian; start times are exact bit patterns, so a
// decoded plan replays bit-identically to the one the decide phase built.
func EncodeDecisionPlan(p *DecisionPlan) []byte {
	n := len(p.starts)
	buf := make([]byte, 0, 8+8+8+n*8+4)
	le := binary.LittleEndian
	buf = append(buf, planMagic[:]...)
	buf = le.AppendUint64(buf, PlanCodecVersion)
	buf = le.AppendUint64(buf, uint64(n))
	for _, v := range p.starts {
		buf = le.AppendUint64(buf, uint64(v))
	}
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// DecodeDecisionPlan parses a blob produced by EncodeDecisionPlan. It
// returns an error — never a partial plan — on a bad magic, version
// mismatch, checksum failure, truncation, or trailing garbage.
func DecodeDecisionPlan(data []byte) (*DecisionPlan, error) {
	if len(data) < len(planMagic)+8+8+4 {
		return nil, fmt.Errorf("core: encoded plan too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	le := binary.LittleEndian
	if got, want := le.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("core: plan checksum mismatch (got %08x want %08x)", got, want)
	}
	var magic [8]byte
	copy(magic[:], body[:8])
	if magic != planMagic {
		return nil, fmt.Errorf("core: bad plan magic %q", magic)
	}
	if v := le.Uint64(body[8:16]); v != PlanCodecVersion {
		return nil, fmt.Errorf("core: plan codec version %d, want %d", v, PlanCodecVersion)
	}
	n64 := le.Uint64(body[16:24])
	rest := body[24:]
	// Each job costs one 8-byte start; bound the count before allocating
	// so a corrupted header cannot drive a huge make.
	if n64 > uint64(len(rest))/8+1 {
		return nil, fmt.Errorf("core: plan job count %d exceeds payload", n64)
	}
	n := int(n64)
	if len(rest) != n*8 {
		return nil, fmt.Errorf("core: plan payload %d bytes, want %d for %d jobs", len(rest), n*8, n)
	}
	p := &DecisionPlan{starts: make([]simtime.Time, n)}
	for i := range p.starts {
		p.starts[i] = simtime.Time(le.Uint64(rest[i*8:]))
	}
	return p, nil
}

// DecidePlan runs the decide phase of the direct-execution path alone and
// returns the decisions as a reusable plan. It fails with ErrNoPlan when
// the configuration is not direct-eligible; any other error is exactly the
// error Run would have returned. The plan indexes jobs of the normalized
// trace — callers must replay it against the same workload trace content
// (cache layers guarantee this by content address, DecisionFingerprint).
func DecidePlan(ctx context.Context, cfg Config, jobs *workload.Trace) (plan *DecisionPlan, err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !cfg.directEligible() {
		return nil, ErrNoPlan
	}
	defer func() {
		if r := recover(); r != nil {
			plan, err = nil, fmt.Errorf("core: run failed: %v", r)
		}
	}()
	trace := normalizedTrace(jobs)
	starts, err := decideDirect(ctx, cfg, trace)
	if err != nil {
		return nil, err
	}
	return &DecisionPlan{starts: starts}, nil
}

// RunWithPlan is Run for a direct-eligible configuration whose decide phase
// already happened: it replays the sweep-line and accounting phases over
// the plan's start times and returns a Result bit-identical to what
// Run(cfg, jobs) would produce. The plan must come from a DecidePlan call
// whose configuration decision-fingerprints equal to cfg over the same
// workload; a plan of the wrong shape (length mismatch, start before
// arrival) is rejected with an error, never replayed into wrong numbers.
func RunWithPlan(ctx context.Context, cfg Config, jobs *workload.Trace, plan *DecisionPlan) (res *metrics.Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !cfg.directEligible() {
		return nil, fmt.Errorf("core: %w: configuration is not direct-eligible", ErrNoPlan)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: run failed: %v", r)
		}
	}()
	// One scan checks both that the trace is normalized and that no job
	// starts before it arrives. Only when it fails do the two checks run
	// apart, so the rebuilt trace and the error are exactly those of
	// normalizing first and checking the plan against the result.
	trace := jobs
	if plan == nil || len(plan.starts) != len(jobs.Jobs) ||
		scanShards(len(plan.starts), planSpan{plan.starts, jobs.Jobs}, checkPlanTrace) != nil {
		trace = normalizedTrace(jobs)
		if plan == nil || len(plan.starts) != len(trace.Jobs) {
			got := 0
			if plan != nil {
				got = len(plan.starts)
			}
			return nil, fmt.Errorf("core: plan covers %d jobs, trace has %d", got, len(trace.Jobs))
		}
		if err := scanShards(len(plan.starts), planSpan{plan.starts, trace.Jobs}, checkPlanStarts); err != nil {
			return nil, err
		}
	}
	return replayDirect(ctx, cfg, trace, plan.starts, plan)
}

// planSpan pairs a plan's start column with the trace it replays over.
type planSpan struct {
	starts []simtime.Time
	jobs   []workload.Job
}

// planScanBlock is how many jobs checkPlanTrace hands to each check in
// turn: small enough (about 115 KB of jobs) that the second check reads
// them from cache, so the fused scan reads the job array from memory
// once.
const planScanBlock = 2048

// checkPlanTrace is RunWithPlan's fused scan over jobs [lo, hi):
// checkNormalized and checkPlanStarts, block by block.
func checkPlanTrace(p planSpan, lo, hi int) error {
	for b := lo; b < hi; b += planScanBlock {
		e := min(b+planScanBlock, hi)
		if err := checkNormalized(p.jobs, b, e); err != nil {
			return err
		}
		if err := checkPlanStarts(p, b, e); err != nil {
			return err
		}
	}
	return nil
}

// checkPlanStarts is RunWithPlan's shape scan over jobs [lo, hi): no job
// may start before it arrives.
func checkPlanStarts(p planSpan, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if p.starts[i] < p.jobs[i].Arrival {
			return fmt.Errorf("core: plan starts job %d at %v before its arrival %v",
				i, p.starts[i], p.jobs[i].Arrival)
		}
	}
	return nil
}
