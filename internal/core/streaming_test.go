package core

import (
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// aggregateFingerprint captures every aggregate query a figure can ask of
// a result. Streaming and retained runs must produce DeepEqual
// fingerprints — bit-identical floats, not approximately equal ones.
type aggregateFingerprint struct {
	Label          string
	Jobs           int
	Carbon         float64
	Baseline       float64
	Savings        float64
	UsageCost      float64
	TotalCost      float64
	TotalWaiting   simtime.Duration
	WaitingHours   float64
	MeanWaiting    simtime.Duration
	MeanCompletion simtime.Duration
	Percentiles    [4]simtime.Duration
	Evictions      int
	CPUHours       [3]float64
	Wasted         float64
	Utilization    float64
	Usage          [3][]float64
	PeakDemand     float64
	CDFTotal       float64
	CDFSamples     [3]float64
	Text           string
}

func fingerprint(res *metrics.Result, horizon simtime.Duration) aggregateFingerprint {
	cdf := res.SavingsByLengthCDF()
	return aggregateFingerprint{
		Label:          res.Label,
		Jobs:           res.JobCount(),
		Carbon:         res.TotalCarbon(),
		Baseline:       res.BaselineCarbon(),
		Savings:        res.CarbonSavingsFraction(),
		UsageCost:      res.UsageCost(),
		TotalCost:      res.TotalCost(),
		TotalWaiting:   res.TotalWaiting(),
		WaitingHours:   res.TotalWaitingHours(),
		MeanWaiting:    res.MeanWaiting(),
		MeanCompletion: res.MeanCompletion(),
		Percentiles: [4]simtime.Duration{
			res.WaitingPercentile(50), res.WaitingPercentile(90),
			res.WaitingPercentile(99), res.WaitingPercentile(100),
		},
		Evictions:   res.TotalEvictions(),
		CPUHours:    res.CPUHoursByOption(),
		Wasted:      res.TotalWastedCPUHours(),
		Utilization: res.ReservedUtilization(),
		Usage:       res.UsageSeries(horizon),
		PeakDemand:  res.PeakDemand(horizon),
		CDFTotal:    cdf.Total(),
		CDFSamples:  [3]float64{cdf.At(0.5), cdf.At(2), cdf.At(12)},
		Text:        res.String(),
	}
}

// TestStreamingMatchesRetained is the scheduler-level differential pin:
// for every mechanism the simulator models — reserved work conservation,
// spot with evictions, checkpointed spot, suspend-resume plans — a
// streaming run must answer every aggregate query bit-identically to a
// retained run of the same configuration.
func TestStreamingMatchesRetained(t *testing.T) {
	tr, jobs := randomInstance(23)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"carbontime-plain", func(c *Config) { c.Policy = policy.CarbonTime{} }},
		{"res-first", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.Reserved = 10
			c.WorkConserving = true
		}},
		{"spot-evictions", func(c *Config) {
			c.Policy = policy.LowestWindow{}
			c.SpotMaxLen = 4 * simtime.Hour
			c.EvictionRate = 0.2
			c.Seed = 5
		}},
		{"checkpointed-spot", func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.SpotMaxLen = 12 * simtime.Hour
			c.EvictionRate = 0.15
			c.Seed = 8
			c.CheckpointInterval = simtime.Hour
		}},
		{"suspend-resume-plan", func(c *Config) { c.Policy = policy.WaitAwhile{} }},
		{"ecovisor-plan", func(c *Config) { c.Policy = policy.Ecovisor{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(tr, nil)
			cfg.RetainJobs = false
			tc.mutate(&cfg)

			streaming, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(streaming.Jobs) != 0 {
				t.Fatalf("streaming run retained %d job records", len(streaming.Jobs))
			}
			retainedCfg := cfg
			retainedCfg.RetainJobs = true
			retained, err := Run(retainedCfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(retained.Jobs) != jobs.Len() {
				t.Fatalf("retained run kept %d records, want %d", len(retained.Jobs), jobs.Len())
			}
			horizon := streaming.Horizon
			got := fingerprint(streaming, horizon)
			want := fingerprint(retained, horizon)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("aggregates diverge between modes:\nstreaming %+v\nretained  %+v", got, want)
			}
		})
	}
}

// TestStreamingEmptyWorkload pins the degenerate streaming run: zero jobs
// must answer zero everywhere without dividing by zero.
func TestStreamingEmptyWorkload(t *testing.T) {
	tr := flatTrace(24, 100)
	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.RetainJobs = false
	res, err := Run(cfg, workload.MustTrace("empty", nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobCount() != 0 {
		t.Errorf("JobCount = %d", res.JobCount())
	}
	if res.MeanWaiting() != 0 || res.MeanCompletion() != 0 ||
		res.CarbonSavingsFraction() != 0 || res.WaitingPercentile(99) != 0 {
		t.Errorf("degenerate aggregates nonzero: %s", res)
	}
}
