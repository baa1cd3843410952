package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Canonical returns the configuration exactly as Run will execute it:
// defaults filled in (CIS, price book, power model, queue ladder, horizon,
// checkpoint overhead, derived label). It is the normal form the
// simulation cache fingerprints, and what cache layers use to rebuild a
// Result identical to the one Run would have produced.
func (c Config) Canonical() Config { return c.withDefaults() }

// identifiedCIS is a CIS that can name its forecasts: equal fingerprints
// promise bit-identical answers to every Intensity and ForecastIntegral
// query. carbon.PerfectService returns its trace's fingerprint, and the
// forecast services hash their recipe (carbon.ServiceFingerprint).
type identifiedCIS interface {
	Fingerprint() [32]byte
}

// Fingerprint returns a content hash identifying the simulation outcome of
// running this configuration over jobs: two runs fingerprint equal if and
// only if core.Run is guaranteed to produce bit-identical aggregate
// results for them. ok=false means the configuration cannot be
// fingerprinted (an unrecognized policy, a CIS that cannot name its
// forecasts, per-job retention requested, or a pinned Mechanism) and the
// caller must simulate.
//
// The hash covers the canonical (defaulted) form, so a zero field and its
// explicit default collide as required, and it deliberately excludes or
// normalizes everything that cannot influence the numbers:
//
//   - Label never enters the hash — it only names the rendered row.
//   - Presentation-only retention (RetainJobs) makes the config
//     non-cacheable instead: retained runs carry per-job records the
//     cache does not store.
//   - A pinned Mechanism makes it non-cacheable too: a pinned run exists
//     to exercise its mechanism, and a cached answer would compare the
//     mechanism against whichever one filled the entry. Auto configs do
//     not hash the field, so on-disk entries keyed without it stay valid.
//   - With SpotMaxLen == 0 no job ever routes to spot, so the eviction
//     rate, checkpoint knobs and seed are zeroed before hashing; with
//     EvictionRate == 0 the eviction model never fires, so the seed
//     alone is zeroed (checkpoint padding still alters spot runtimes).
//   - AvgLengthOverride is hashed in sorted key order and restricted to
//     queues that exist in the ladder — entries for out-of-range queues
//     are ignored by the scheduler and must not perturb the key.
//
// Carbon and workload content enter through the traces' memoized
// fingerprints, so hashing a config is cheap enough to do per cell.
func (c Config) Fingerprint(jobs *workload.Trace) (fp [32]byte, ok bool) {
	canon := c.withDefaults()
	if canon.Policy == nil || canon.Carbon == nil || jobs == nil {
		return fp, false
	}
	if canon.RetainJobs || canon.Mechanism != MechanismAuto {
		return fp, false
	}
	ptag, pparam, ok := policyIdentity(canon.Policy)
	if !ok {
		return fp, false
	}
	cis, ok := canon.CIS.(identifiedCIS)
	if !ok {
		return fp, false
	}
	var atag int
	var aparams [2]float64
	if canon.Elastic != nil {
		// The allocator chooses replica grants, so its identity is part of
		// the outcome; unknown implementations may carry hidden state the
		// hash cannot see and spoil cacheability like unknown policies do.
		atag, aparams, ok = allocatorIdentity(canon.Allocator)
		if !ok {
			return fp, false
		}
	}

	if canon.SpotMaxLen == 0 {
		canon.EvictionRate = 0
		canon.CheckpointInterval = 0
		canon.CheckpointOverhead = 0
		canon.Seed = 0
	}
	if canon.EvictionRate == 0 {
		canon.Seed = 0
	}

	var buf [keyBufSize]byte
	k := keyBuf(buf[:0]).
		u64(fingerprintLayout).
		u64(uint64(ptag)).
		f64(pparam).
		digest(canon.Carbon.Fingerprint()).
		// A perfect CIS's fingerprint is its trace's, so keys written
		// before other services could name themselves stay valid.
		digest(cis.Fingerprint()).
		u64(uint64(canon.Reserved)).
		flag(canon.WorkConserving).
		u64(uint64(canon.SpotMaxLen)).
		f64(canon.EvictionRate).
		u64(uint64(canon.CheckpointInterval)).
		u64(uint64(canon.CheckpointOverhead)).
		f64(canon.Pricing.OnDemandHourly).
		f64(canon.Pricing.ReservedFraction).
		f64(canon.Pricing.SpotFraction).
		f64(canon.Power.KWPerCPU).
		queues(canon.Queues).
		u64(uint64(canon.Horizon)).
		lengthOverrides(canon.AvgLengthOverride, len(canon.Queues)).
		u64(uint64(canon.Seed)).
		digest(jobs.Fingerprint())
	if canon.Elastic != nil {
		// Elastic block, appended only when present: a rigid config's hash
		// is bit-for-bit what it was before elasticity existed, so the
		// on-disk cache stays valid without a layout bump, and the marker
		// keeps an elastic config from ever colliding with a rigid one.
		k = k.u64(0xE1A5).
			digest(canon.Elastic.Fingerprint()).
			u64(uint64(atag)).
			f64(aparams[0]).
			f64(aparams[1]).
			u64(uint64(canon.ElasticCapacity))
	}
	return sha256.Sum256(k), true
}

// allocatorIdentity maps an elastic allocator to a stable tag plus its
// parameters, the allocator counterpart of policyIdentity. Tags are frozen
// — append new allocators, never renumber.
func allocatorIdentity(a policy.ElasticAllocator) (tag int, params [2]float64, ok bool) {
	switch a := a.(type) {
	case policy.StaticAlloc:
		return 1, params, true
	case policy.GreedyMarginal:
		thresh := a.ScaleThreshold
		if thresh <= 0 {
			thresh = 0.75 // Allocate's documented default
		}
		preempt := a.PreemptAbove
		if preempt <= 0 {
			preempt = 1.25 // Allocate's documented default
		}
		return 2, [2]float64{thresh, preempt}, true
	default:
		return 0, params, false
	}
}

// fingerprintLayout versions the binary layout hashed above. Bump it
// whenever the set or order of fields changes so stale on-disk cache
// entries written under the old layout can never collide with new keys.
const fingerprintLayout = 1

// DecisionFingerprint returns a content hash identifying the *decide
// phase* of running this configuration over jobs: two configurations
// decision-fingerprint equal if and only if the direct path's decide phase
// is guaranteed to produce the identical start-time column for both, so a
// DecisionPlan cached under the hash replays bit-identically
// (plan.go). ok=false means the configuration has no decision projection —
// it is not direct-eligible (work-conserving, spot routing, a plan-capable
// or unrecognized policy, an opaque CIS, a pinned Mechanism) — and callers
// must run the full path.
//
// The hash is a strict projection of Fingerprint onto the inputs the
// decide phase reads: policy identity, the CIS trace (the forecasts
// policies consult — NOT the realized Carbon trace, which only accounting
// integrates), the queue ladder's classification bounds and wait
// guarantees, the average-length estimates, and the workload itself.
// Everything else is accounting replayed per cell — Reserved, prices, the
// power model, the realized carbon trace, the horizon, retention, spot
// knobs (forced inert by eligibility) — and is deliberately excluded, so a
// reserved-size or carbon-tax sweep shares one plan across every cell.
//
// Unlike Fingerprint, RetainJobs does not spoil the hash: retention
// changes what the replay materializes, never what the decide phase
// chooses.
func (c Config) DecisionFingerprint(jobs *workload.Trace) (fp [32]byte, ok bool) {
	canon := c.withDefaults()
	if canon.Policy == nil || canon.Carbon == nil || jobs == nil {
		return fp, false
	}
	if canon.validate() != nil {
		return fp, false
	}
	if !canon.directEligible() {
		return fp, false
	}
	ptag, pparam, ok := policyIdentity(canon.Policy)
	if !ok {
		return fp, false
	}
	// directEligible admitted only the perfect CIS, whose fingerprint is
	// its trace's.
	cis, ok := canon.CIS.(identifiedCIS)
	if !ok {
		return fp, false
	}

	// Domain separator: a decision fingerprint must never collide with a
	// full simulation fingerprint of any configuration.
	var buf [keyBufSize]byte
	k := append(keyBuf(buf[:0]), "gaia:decision-plan"...).
		u64(decisionFingerprintLayout).
		u64(uint64(ptag)).
		f64(pparam).
		digest(cis.Fingerprint()).
		queues(canon.Queues).
		lengthOverrides(canon.AvgLengthOverride, len(canon.Queues)).
		digest(jobs.Fingerprint())
	return sha256.Sum256(k), true
}

// decisionFingerprintLayout versions the DecisionFingerprint hash layout,
// independently of fingerprintLayout. Bump on any change to the set or
// order of hashed fields; it also participates in the plan cache's on-disk
// entry names so stale artifacts never match.
const decisionFingerprintLayout = 1

// policyIdentity maps a policy to a stable tag plus its parameters. Only
// policies this function knows are cacheable: an unknown implementation
// may carry hidden state the fingerprint cannot see. Tags are frozen —
// append new policies, never renumber.
func policyIdentity(p policy.Policy) (tag int, param float64, ok bool) {
	switch p := p.(type) {
	case policy.NoWait:
		return 1, 0, true
	case policy.AllWait:
		return 2, 0, true
	case policy.LowestSlot:
		return 3, 0, true
	case policy.LowestWindow:
		return 4, 0, true
	case policy.CarbonTime:
		return 5, 0, true
	case policy.WaitAwhile:
		return 6, 0, true
	case policy.WaitAwhileEst:
		return 7, 0, true
	case policy.Ecovisor:
		pct := p.ThresholdPercentile
		if pct <= 0 {
			pct = 30 // Decide's documented default
		}
		return 8, pct, true
	case policy.CriticalPathShift:
		return 9, 0, true
	default:
		return 0, 0, false
	}
}

// keyBuf collects the fields the two cache keys hash, each in a fixed
// little-endian encoding; the key is the SHA-256 of the whole buffer.
// Each method appends one field or block and returns the grown buffer, so
// a key built in a keyBufSize stack array allocates nothing of its own.
type keyBuf []byte

// keyBufSize covers a full key, elastic block included, with room to
// spare for a long queue ladder.
const keyBufSize = 512

func (k keyBuf) u64(v uint64) keyBuf { return binary.LittleEndian.AppendUint64(k, v) }

func (k keyBuf) f64(v float64) keyBuf { return k.u64(math.Float64bits(v)) }

func (k keyBuf) flag(v bool) keyBuf {
	if v {
		return k.u64(1)
	}
	return k.u64(0)
}

// digest appends a content fingerprint (a trace's, a CIS's, an elastic
// trace's).
func (k keyBuf) digest(d [32]byte) keyBuf { return append(k, d[:]...) }

// queues appends the queue ladder: its length, then each queue's length
// bound and wait guarantee.
func (k keyBuf) queues(qs workload.QueueLadder) keyBuf {
	k = k.u64(uint64(len(qs)))
	for _, q := range qs {
		k = k.u64(uint64(q.MaxLength)).u64(uint64(q.MaxWait))
	}
	return k
}

// lengthOverrides appends the average-length overrides for the queues of
// an n-queue ladder in ascending queue order; entries for queues outside
// the ladder are ignored by the scheduler and skipped here.
func (k keyBuf) lengthOverrides(over map[workload.Queue]simtime.Duration, n int) keyBuf {
	keys := make([]int, 0, len(over))
	for q := range over {
		if int(q) >= 0 && int(q) < n {
			keys = append(keys, int(q))
		}
	}
	sort.Ints(keys)
	k = k.u64(uint64(len(keys)))
	for _, q := range keys {
		k = k.u64(uint64(q)).u64(uint64(over[workload.Queue(q)]))
	}
	return k
}
