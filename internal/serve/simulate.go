package serve

import (
	"context"
	"fmt"
	"sync"

	"github.com/carbonsched/gaia/internal/cell"
	"github.com/carbonsched/gaia/internal/runcache"
)

// Guardrails on simulate inputs: a serving process answers interactive
// what-if queries, not paper-scale year runs — those belong to gaia-lab.
const (
	maxSimulateDays = 60
	maxSimulateJobs = 200_000
)

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

// simulateCell reads one simulate body into a normalized cell within the
// guardrails, so equal cells in different spellings share one trace pair
// and one run-cache fingerprint. Every error names a field (HTTP 400).
func simulateCell(body []byte) (cell.Spec, error) {
	spec := cell.Default()
	err := cell.Decode(body, &spec)
	if err == nil {
		err = spec.Normalize()
	}
	switch {
	case err != nil:
	case spec.Jobs.N > maxSimulateJobs:
		err = &cell.FieldError{Field: "jobs", Msg: fmt.Sprintf("%d exceeds this server's limit of %d", spec.Jobs.N, maxSimulateJobs)}
	case spec.Days > maxSimulateDays:
		err = &cell.FieldError{Field: "days", Msg: fmt.Sprintf("%d exceeds this server's limit of %d", spec.Days, maxSimulateDays)}
	}
	return spec, err
}

// simulate runs one normalized cell through the run cache under the
// request's ctx. A request that finds the cell already computing waits on
// that computation, which stops only when every waiting request has gone.
func (s *Server) simulate(ctx context.Context, spec cell.Spec) (*SimulateResponse, error) {
	cfg, jobsTr := spec.Build(&s.traces)
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
