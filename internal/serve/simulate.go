package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Guardrails on simulate inputs: a serving process answers interactive
// what-if queries, not paper-scale year runs — those belong to gaia-lab.
const (
	maxSimulateDays = 60
	maxSimulateJobs = 200_000
)

// SimulateRequest describes one what-if simulation cell. Zero-valued
// fields take the documented defaults, so two clients asking for the same
// cell in different spellings normalize to one request, one memoized trace
// pair and one run-cache fingerprint, and share one computation.
type SimulateRequest struct {
	Policy string `json:"policy"`
	Region string `json:"region"`
	// Family is the synthetic workload family: alibaba (default), azure
	// or mustang.
	Family string `json:"family,omitempty"`
	// Jobs and Days size the workload; defaults 1000 jobs over 7 days.
	Jobs int `json:"jobs,omitempty"`
	Days int `json:"days,omitempty"`
	// Seed drives workload generation and spot evictions; default 1.
	Seed int64 `json:"seed,omitempty"`
	// Reserved / WorkConserving / SpotMaxHours / EvictionRate select the
	// paper's cost-aware mechanisms, exactly as in gaia-sim.
	Reserved       int     `json:"reserved,omitempty"`
	WorkConserving bool    `json:"work_conserving,omitempty"`
	SpotMaxHours   float64 `json:"spot_max_hours,omitempty"`
	EvictionRate   float64 `json:"eviction_rate,omitempty"`
	// WaitShortHours / WaitLongHours override the queues' waiting-time
	// guarantees; 0 keeps the paper's 6 h / 24 h defaults.
	WaitShortHours float64 `json:"wait_short_hours,omitempty"`
	WaitLongHours  float64 `json:"wait_long_hours,omitempty"`
}

// SimulateResponse reports the cell's aggregates plus how the request
// was served — clients can see the run cache working.
type SimulateResponse struct {
	Label    string `json:"label"`
	Region   string `json:"region"`
	Workload string `json:"workload"`
	Jobs     int    `json:"jobs"`

	CarbonKg              float64 `json:"carbon_kg"`
	BaselineCarbonKg      float64 `json:"baseline_carbon_kg"`
	CarbonSavingsPercent  float64 `json:"carbon_savings_percent"`
	CostUSD               float64 `json:"cost_usd"`
	MeanWaitingMinutes    int64   `json:"mean_waiting_minutes"`
	MeanCompletionMinutes int64   `json:"mean_completion_minutes"`
	Evictions             int     `json:"evictions"`

	// CacheOutcome is the runcache verdict (computed, hit, dedup,
	// disk-hit, remote-hit, plan-hit, plan-disk-hit). Coalesced reports
	// whether this request joined another request's computation of the
	// same cell while it ran: exactly when CacheOutcome is "dedup".
	CacheOutcome string `json:"cache_outcome"`
	Coalesced    bool   `json:"coalesced"`
}

// simulateBodies holds the buffers simulate bodies are read into.
var simulateBodies = sync.Pool{New: func() any { return new([]byte) }}

// decodeSimulate strictly parses one simulate body: unknown fields and
// trailing garbage are errors, so client typos fail loudly instead of
// silently meaning something else.
func decodeSimulate(body []byte) (SimulateRequest, error) {
	var req SimulateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SimulateRequest{}, fmt.Errorf("invalid JSON: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return SimulateRequest{}, errors.New("invalid JSON: trailing data after request object")
	}
	return req, nil
}

// normalizeSimulate validates and canonicalizes a request in place, so
// equal cells map to equal trace-memo keys. All failures map to HTTP 400.
func (s *Server) normalizeSimulate(req *SimulateRequest) error {
	if _, err := policy.ByName(req.Policy); err != nil {
		return err
	}
	req.Policy = strings.ToLower(req.Policy)
	req.Region = strings.ToUpper(strings.TrimSpace(req.Region))
	if _, err := carbon.RegionByCode(req.Region); err != nil {
		return fmt.Errorf("unknown region %q (GET /v1/traces lists the available ones)", req.Region)
	}
	if req.Family == "" {
		req.Family = "alibaba"
	}
	req.Family = strings.ToLower(req.Family)
	if _, ok := workload.FamilyByName(req.Family); !ok {
		return fmt.Errorf("unknown workload family %q (want alibaba, azure or mustang)", req.Family)
	}
	if req.Jobs == 0 {
		req.Jobs = 1000
	}
	if req.Jobs < 1 || req.Jobs > maxSimulateJobs {
		return fmt.Errorf("jobs must be in [1, %d]", maxSimulateJobs)
	}
	if req.Days == 0 {
		req.Days = 7
	}
	if req.Days < 1 || req.Days > maxSimulateDays {
		return fmt.Errorf("days must be in [1, %d]", maxSimulateDays)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Reserved < 0 {
		return errors.New("reserved must be non-negative")
	}
	if req.SpotMaxHours < 0 {
		return errors.New("spot_max_hours must be non-negative")
	}
	if req.EvictionRate < 0 || req.EvictionRate >= 1 {
		return errors.New("eviction_rate must be in [0, 1)")
	}
	if req.WaitShortHours < 0 || req.WaitLongHours < 0 {
		return errors.New("wait hours must be non-negative")
	}
	return nil
}

// simulate runs one normalized cell through the run cache under the
// request's ctx. A request that finds the cell already computing waits on
// that computation, which stops only when every waiting request has gone.
func (s *Server) simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	carbonTr := s.carbonTrace(req.Region, req.Days)
	jobsTr := s.workloadTrace(req.Family, req.Jobs, req.Days, req.Seed)
	pol, err := policy.ByName(req.Policy)
	if err != nil {
		return nil, err
	}
	wait := func(h float64, def simtime.Duration) simtime.Duration {
		if h == 0 {
			return def // 0 keeps the paper's default
		}
		return simtime.HoursDur(h)
	}
	queues := workload.PaperQueues(wait(req.WaitShortHours, workload.DefaultWaitShort),
		wait(req.WaitLongHours, workload.DefaultWaitLong))
	cfg := core.Config{
		Policy:         pol,
		Carbon:         carbonTr,
		Reserved:       req.Reserved,
		WorkConserving: req.WorkConserving,
		SpotMaxLen:     simtime.HoursDur(req.SpotMaxHours),
		EvictionRate:   req.EvictionRate,
		Queues:         queues,
		Horizon:        simtime.Duration(req.Days+simulateSlackDays) * simtime.Day,
		Seed:           req.Seed,
	}
	res, outcome, err := s.cache.RunContext(ctx, cfg, jobsTr)
	if err != nil {
		return nil, err
	}
	s.obs.observeCache(outcome.String())
	return &SimulateResponse{
		Label:                 res.Label,
		Region:                res.Region,
		Workload:              res.Workload,
		Jobs:                  res.JobCount(),
		CarbonKg:              res.TotalCarbonKg(),
		BaselineCarbonKg:      res.BaselineCarbon() / 1000,
		CarbonSavingsPercent:  100 * res.CarbonSavingsFraction(),
		CostUSD:               res.TotalCost(),
		MeanWaitingMinutes:    res.MeanWaiting().Minutes(),
		MeanCompletionMinutes: res.MeanCompletion().Minutes(),
		Evictions:             res.TotalEvictions(),
		CacheOutcome:          outcome.String(),
		Coalesced:             outcome == runcache.Dedup,
	}, nil
}

// simulateSlackDays pads the carbon trace and accounting horizon past the
// workload span so late arrivals can still wait out their full windows —
// the same 3-day slack gaia-sim applies.
const simulateSlackDays = 3

// carbonKey / workloadKey index the server's trace memos. The memos save
// only generation and hashing: both trace fingerprints hash the trace's
// contents (memoized in the instance), so an identical trace generated
// again keys the same run-cache cell, and repeated cells are cache hits
// with or without the memo.
type carbonKey struct {
	region string
	days   int
}

type workloadKey struct {
	family string
	jobs   int
	days   int
	seed   int64
}

// carbonTrace returns the memoized trace for (region, days), generating
// (days+slack)*24 hours with the same fixed seed gaia-sim uses, so the
// service simulates the exact cells the CLI would.
func (s *Server) carbonTrace(region string, days int) *carbon.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	key := carbonKey{region: region, days: days}
	if tr, ok := s.carbonMemo[key]; ok {
		return tr
	}
	spec, err := carbon.RegionByCode(region)
	if err != nil {
		// normalizeSimulate already vetted the region.
		panic(err)
	}
	tr := spec.Generate((days+simulateSlackDays)*24, carbonTraceSeed)
	s.carbonMemo[key] = tr
	return tr
}

// workloadTrace returns the memoized workload for its generation inputs.
// The memo is bounded: seeds are client-controlled, so at capacity it is
// simply cleared — neither correctness nor cache hits depend on it (see
// carbonKey docs), only the cost of generating and hashing a trace does.
func (s *Server) workloadTrace(family string, jobs, days int, seed int64) *workload.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	key := workloadKey{family: family, jobs: jobs, days: days, seed: seed}
	if tr, ok := s.workloadMemo[key]; ok {
		return tr
	}
	if len(s.workloadMemo) >= maxWorkloadMemo {
		s.workloadMemo = make(map[workloadKey]*workload.Trace)
	}
	// normalizeSimulate already vetted the family.
	fam, _ := workload.FamilyByName(family)
	rng := rand.New(rand.NewSource(seed))
	tr := fam.GenerateByCount(rng, jobs, simtime.Duration(days)*simtime.Day)
	s.workloadMemo[key] = tr
	return tr
}

// carbonTraceSeed pins synthetic carbon traces to gaia-sim's generation
// seed so CLI and service answer identical cells identically.
const carbonTraceSeed = 2022

// maxWorkloadMemo bounds the workload memo (each entry holds a full job
// slice; 256 × 200k jobs worst case is still modest).
const maxWorkloadMemo = 256
