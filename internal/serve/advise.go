package serve

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Guardrails on advise inputs. They bound the oracle tables a request can
// force the server to build (tables are O(horizon + W) per distinct
// (W, L) pair) and reject the nonsense values a public endpoint sees.
const (
	maxAdviseLength  = 30 * simtime.Day
	maxAdviseWait    = 7 * simtime.Day
	maxAdviseCPUs    = 1 << 20
	maxAdviseBodyLen = 1 << 20
)

// Default waiting-time guarantees as request values, shared by reference
// so normalization never allocates them. Read-only by contract.
var (
	defaultWaitShortMinutes = int64(workload.DefaultWaitShort.Minutes())
	defaultWaitLongMinutes  = int64(workload.DefaultWaitLong.Minutes())
)

// AdviseJob is one job to advise on: the per-job fields of a /v1/advise
// body, and one entry of a /v1/advise/batch body's jobs. Times are
// integer simulation minutes (the trace starts at minute 0), matching the
// simulator's clock.
type AdviseJob struct {
	// LengthMinutes is the job's (estimated) execution time. Required.
	LengthMinutes int64 `json:"length_minutes"`
	// CPUs is the job's parallel width; default 1.
	CPUs int `json:"cpus,omitempty"`
	// ArrivalMinute is the submission time on the trace clock; default 0.
	ArrivalMinute int64 `json:"arrival_minute,omitempty"`
	// Queue forces the job class ("short" or "long"); empty classifies by
	// length against the default 2 h bound, as the scheduler does.
	Queue string `json:"queue,omitempty"`
	// MaxWaitMinutes overrides the queue's waiting-time guarantee
	// (deadline slack). Default: 360 for short, 1440 for long — the
	// paper's 6 h / 24 h configuration. 0 means "start now or never wait".
	MaxWaitMinutes *int64 `json:"max_wait_minutes,omitempty"`
	// AvgLengthMinutes is the historical average length that
	// length-oblivious policies use as their estimate; default 60,
	// matching the policy package's fallback.
	AvgLengthMinutes int64 `json:"avg_length_minutes,omitempty"`
	// SpotMaxMinutes marks jobs up to this length spot-eligible for the
	// instance-class recommendation; 0 disables spot.
	SpotMaxMinutes int64 `json:"spot_max_minutes,omitempty"`
}

// AdviseRequest is one online scheduling query: "a job like this just
// arrived — when should it start?". The job's fields sit beside the
// policy and region in the JSON object.
type AdviseRequest struct {
	// Policy is the scheduling policy tag (policy.Names()).
	Policy string `json:"policy"`
	// Region is the carbon-trace region code (GET /v1/traces).
	Region string `json:"region"`
	AdviseJob
}

// AdviseWindow is one suspend-resume execution window, in trace minutes.
type AdviseWindow struct {
	StartMinute int64 `json:"start_minute"`
	EndMinute   int64 `json:"end_minute"`
}

// AdviseResponse is the advisory verdict plus its predicted consequences
// versus running the job immediately on arrival (the NoWait baseline).
type AdviseResponse struct {
	Policy string `json:"policy"`
	Region string `json:"region"`
	Queue  string `json:"queue"`

	// StartMinute is when execution (first) begins; Plan is set instead
	// of a contiguous run for suspend-resume policies.
	StartMinute  int64          `json:"start_minute"`
	FinishMinute int64          `json:"finish_minute"`
	WaitMinutes  int64          `json:"wait_minutes"`
	Plan         []AdviseWindow `json:"plan,omitempty"`

	// InstanceClass is "spot" when the job fits the request's spot bound,
	// else "on-demand".
	InstanceClass string `json:"instance_class"`

	CarbonGrams         float64 `json:"carbon_grams"`
	BaselineCarbonGrams float64 `json:"baseline_carbon_grams"`
	CarbonSavingsGrams  float64 `json:"carbon_savings_grams"`
	CostUSD             float64 `json:"cost_usd"`
	BaselineCostUSD     float64 `json:"baseline_cost_usd"`

	// FastPath reports whether the decision came from the precomputed
	// oracle tables (it is bit-identical either way; see carbon.Oracle).
	FastPath bool `json:"fast_path"`
}

// adviseTarget is what normalization resolves once per request, for every
// job in it: the policy and the region's carbon trace.
type adviseTarget struct {
	policy string // the tag as the client sent it, echoed in each verdict
	pol    policy.Policy
	region string // canonical region code
	tr     *carbon.Trace
}

// normalizeAdvise validates a decoded request against the server's trace
// registry and fills every job's defaults in place. Both advise endpoints
// call it (/v1/advise with a batch of one), so the policy tag is checked
// and the region resolved once per request, never per job. When a job
// fails, its index is returned with the error, else -1. All failures map
// to HTTP 400.
func (s *Server) normalizeAdvise(req *AdviseBatchRequest) (adviseTarget, int, error) {
	pol, err := policy.ByName(req.Policy)
	if err != nil {
		return adviseTarget{}, -1, err
	}
	region := strings.ToUpper(strings.TrimSpace(req.Region))
	tr, ok := s.regions[region]
	if !ok {
		return adviseTarget{}, -1, fmt.Errorf("unknown region %q (GET /v1/traces lists the available ones)", region)
	}
	t := adviseTarget{policy: req.Policy, pol: pol, region: region, tr: tr}
	for i := range req.Jobs {
		if err := t.normalizeJob(&req.Jobs[i]); err != nil {
			return adviseTarget{}, i, err
		}
	}
	return t, -1, nil
}

// normalizeJob validates one job against the target's trace and fills its
// defaults in place.
func (t *adviseTarget) normalizeJob(req *AdviseJob) error {
	length := simtime.Duration(req.LengthMinutes)
	if length <= 0 || length > maxAdviseLength {
		return fmt.Errorf("length_minutes must be in [1, %d]", maxAdviseLength.Minutes())
	}
	if req.CPUs == 0 {
		req.CPUs = 1
	}
	if req.CPUs < 1 || req.CPUs > maxAdviseCPUs {
		return fmt.Errorf("cpus must be in [1, %d]", maxAdviseCPUs)
	}
	if req.ArrivalMinute < 0 || simtime.Time(req.ArrivalMinute) >= simtime.Time(t.tr.Horizon()) {
		return fmt.Errorf("arrival_minute must be in [0, %d) for region %s", t.tr.Horizon().Minutes(), t.region)
	}
	switch strings.ToLower(strings.TrimSpace(req.Queue)) {
	case "":
		if length <= workload.DefaultShortMax {
			req.Queue = workload.QueueShort.String()
		} else {
			req.Queue = workload.QueueLong.String()
		}
	case workload.QueueShort.String():
		req.Queue = workload.QueueShort.String()
	case workload.QueueLong.String():
		req.Queue = workload.QueueLong.String()
	default:
		return fmt.Errorf("queue must be %q or %q (or empty to classify by length)",
			workload.QueueShort.String(), workload.QueueLong.String())
	}
	if req.MaxWaitMinutes == nil {
		// Point at the shared defaults rather than allocating: nothing
		// downstream writes through the pointer, and the batch path
		// normalizes thousands of jobs per call.
		if req.Queue == workload.QueueLong.String() {
			req.MaxWaitMinutes = &defaultWaitLongMinutes
		} else {
			req.MaxWaitMinutes = &defaultWaitShortMinutes
		}
	}
	if *req.MaxWaitMinutes < 0 || simtime.Duration(*req.MaxWaitMinutes) > maxAdviseWait {
		return fmt.Errorf("max_wait_minutes must be in [0, %d]", maxAdviseWait.Minutes())
	}
	if req.AvgLengthMinutes == 0 {
		req.AvgLengthMinutes = int64(simtime.Hour.Minutes())
	}
	if req.AvgLengthMinutes < 0 || simtime.Duration(req.AvgLengthMinutes) > maxAdviseLength {
		return fmt.Errorf("avg_length_minutes must be in [1, %d]", maxAdviseLength.Minutes())
	}
	if req.SpotMaxMinutes < 0 || simtime.Duration(req.SpotMaxMinutes) > maxAdviseLength {
		return fmt.Errorf("spot_max_minutes must be in [0, %d]", maxAdviseLength.Minutes())
	}
	return nil
}

// ctxKey identifies the inputs that determine a policy.Context for the
// advisory path. Region traces are built once at startup and shared, so
// trace pointer identity is region identity.
type ctxKey struct {
	tr      *carbon.Trace
	queue   workload.Queue
	maxWait simtime.Duration
	avgLen  simtime.Duration
}

// adviseCtxMax bounds the policy contexts one scratch keeps, one per
// distinct ctxKey: a batch's short and long queues under a few wait
// bounds, so jobs that alternate between them reuse both contexts.
const adviseCtxMax = 4

// adviseCtx is a policy context and the key it was built for.
type adviseCtx struct {
	key  ctxKey
	pctx *policy.Context
}

// adviseScratch is the reusable per-request state of the advise hot path.
// handleAdvise pools these across requests and the batch endpoint carries
// one per batch, so steady-state serving reuses the policy contexts (and
// their oracle fast-path wiring), the response struct, the plan and window
// slices, and the output buffer instead of reallocating them per job.
//
// Reusing a policy.Context across sequential Decide calls is the
// simulator's own access pattern (core.Run drives every job in a run
// through one context); contexts are not concurrency-safe, which the
// pool's one-owner discipline already guarantees.
type adviseScratch struct {
	ctxs    []adviseCtx // at most adviseCtxMax, the latest built last
	resp    AdviseResponse
	buf     []byte
	windows []simtime.Interval

	// Request state: body buffer, decoder scratch, the decoded request
	// (a batch of one on /v1/advise), and the batch endpoint's
	// duplicate-query memo with its line arena, its block's arrivals,
	// their order (and sort buckets), the block's line spans and its
	// lines the memo has no room for. All reused via the pool.
	body     []byte
	dec      batchDecoder
	batch    AdviseBatchRequest
	memo     map[memoKey]lineSpan
	arena    []byte
	arrivals []simtime.Time
	ord, cnt []int32
	spans    []lineSpan
	lines    []byte
}

// context returns the scratch's policy context for key, building it when
// the scratch has none; past adviseCtxMax the oldest is dropped.
func (sc *adviseScratch) context(key ctxKey) *policy.Context {
	for i := range sc.ctxs {
		if sc.ctxs[i].key == key {
			return sc.ctxs[i].pctx
		}
	}
	pctx := &policy.Context{
		CIS: carbon.NewPerfectService(key.tr),
		Queues: map[workload.Queue]policy.QueueInfo{
			key.queue: {MaxWait: key.maxWait, AvgLength: key.avgLen},
		},
	}
	pctx.EnableFastPaths()
	if len(sc.ctxs) == adviseCtxMax {
		sc.ctxs = slices.Delete(sc.ctxs, 0, 1)
	}
	sc.ctxs = append(sc.ctxs, adviseCtx{key: key, pctx: pctx})
	return pctx
}

var adviseScratchPool = sync.Pool{New: func() any { return new(adviseScratch) }}

// adviseInto answers one normalized job for t. It follows the offline
// scheduler's decision path exactly: a policy.Context (one per region and
// queue parameters, kept in sc) layered over the region trace's shared,
// immutable oracle tables, then the same Policy.Decide call core.Run
// makes — so the advisory start times are byte-identical to what a
// simulation of that moment would choose. The returned response aliases
// sc.resp and is valid until sc is reused or released.
func adviseInto(t *adviseTarget, req *AdviseJob, sc *adviseScratch) (*AdviseResponse, error) {
	tr := t.tr
	queue := workload.QueueShort
	if req.Queue == workload.QueueLong.String() {
		queue = workload.QueueLong
	}
	length := simtime.Duration(req.LengthMinutes)
	now := simtime.Time(req.ArrivalMinute)
	job := workload.Job{
		Arrival: now,
		Length:  length,
		CPUs:    req.CPUs,
		Queue:   queue,
	}
	pctx := sc.context(ctxKey{
		tr:      tr,
		queue:   queue,
		maxWait: simtime.Duration(*req.MaxWaitMinutes),
		avgLen:  simtime.Duration(req.AvgLengthMinutes),
	})
	// A reused context accumulates fast-path hits, so "did this decision
	// take the fast path" is the delta, not the total.
	fastBefore := pctx.FastPathHits()
	dec := t.pol.Decide(job, now, pctx)
	if err := dec.Validate(job, now); err != nil {
		return nil, fmt.Errorf("policy returned an invalid decision: %w", err)
	}

	// Execution windows: a plan is normalized against the true length the
	// same way the simulator consumes it; a plain start is one window.
	// Either way they land in sc.windows: the policy's plan is borrowed
	// from pctx.
	var windows []simtime.Interval
	if dec.IsPlan() {
		windows = policy.NormalizePlan(sc.windows[:0], dec.Plan, length)
	} else {
		windows = append(sc.windows[:0], simtime.Interval{Start: dec.Start, End: dec.Start.Add(length)})
	}
	sc.windows = windows[:0]

	pricing, power := cloud.DefaultPricing(), cloud.DefaultPower()
	var carbonG float64
	for _, iv := range windows {
		carbonG += power.Carbon(tr.Integral(iv), req.CPUs)
	}
	baselineG := power.Carbon(tr.Integral(simtime.Interval{Start: now, End: now.Add(length)}), req.CPUs)

	class := cloud.OnDemand
	if req.SpotMaxMinutes > 0 && length <= simtime.Duration(req.SpotMaxMinutes) {
		class = cloud.Spot
	}
	cost := pricing.HourlyRate(class) * float64(req.CPUs) * length.Hours()
	baseCost := pricing.HourlyRate(cloud.OnDemand) * float64(req.CPUs) * length.Hours()

	plan := sc.resp.Plan[:0]
	resp := &sc.resp
	*resp = AdviseResponse{
		Policy:              t.policy,
		Region:              t.region,
		Queue:               req.Queue,
		StartMinute:         int64(windows[0].Start),
		FinishMinute:        int64(windows[len(windows)-1].End),
		WaitMinutes:         int64(windows[len(windows)-1].End.Sub(now) - length),
		InstanceClass:       class.String(),
		CarbonGrams:         carbonG,
		BaselineCarbonGrams: baselineG,
		CarbonSavingsGrams:  baselineG - carbonG,
		CostUSD:             cost,
		BaselineCostUSD:     baseCost,
		FastPath:            pctx.FastPathHits() > fastBefore,
	}
	if dec.IsPlan() {
		for _, iv := range windows {
			plan = append(plan, AdviseWindow{StartMinute: int64(iv.Start), EndMinute: int64(iv.End)})
		}
		resp.Plan = plan
	}
	return resp, nil
}
