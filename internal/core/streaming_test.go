package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
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
	CDF            *stats.WeightedCDF
	Text           string
}

// fingerprintPercentiles are the waiting percentiles a fingerprint holds.
var fingerprintPercentiles = [4]float64{50, 90, 99, 100}

func fingerprint(res *metrics.Result, horizon simtime.Duration) aggregateFingerprint {
	f := aggregateFingerprint{
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
		Evictions:      res.TotalEvictions(),
		CPUHours:       res.CPUHoursByOption(),
		Wasted:         res.TotalWastedCPUHours(),
		Utilization:    res.ReservedUtilization(),
		Usage:          res.UsageSeries(horizon),
		PeakDemand:     res.PeakDemand(horizon),
		CDF:            res.SavingsByLengthCDF(),
		Text:           res.String(),
	}
	for i, p := range fingerprintPercentiles {
		f.Percentiles[i] = res.WaitingPercentile(p)
	}
	return f
}

// scanRecords is the record-level reference for a retained run: every
// aggregate of fingerprint recomputed from res.Jobs alone, with no access
// to the accumulator. Sums run over the records in job-ID order, the
// percentiles sort a fresh copy of the waiting times, mean completion is
// Finish − Arrival per record, and the usage series replays every segment
// minute by minute. Only Text, which formats the aggregates compared
// here, is not recomputed.
func scanRecords(res *metrics.Result, horizon simtime.Duration) aggregateFingerprint {
	f := aggregateFingerprint{Label: res.Label, Jobs: len(res.Jobs)}
	var completion simtime.Duration
	waits := make([]float64, len(res.Jobs))
	var lengths, savings []float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		f.Carbon += j.Carbon
		f.Baseline += j.BaselineCarbon
		f.UsageCost += j.UsageCost
		f.TotalWaiting += j.Waiting
		f.WaitingHours += j.Waiting.Hours()
		completion += j.Finish.Sub(j.Arrival)
		waits[i] = float64(j.Waiting)
		f.Evictions += j.Evictions
		f.Wasted += j.WastedCPUHours
		for o := range f.CPUHours {
			f.CPUHours[o] += j.CPUHours[o]
		}
		if s := j.BaselineCarbon - j.Carbon; s > 0 {
			lengths = append(lengths, float64(j.Length))
			savings = append(savings, s)
		}
	}
	if f.Baseline != 0 {
		f.Savings = 1 - f.Carbon/f.Baseline
	}
	f.TotalCost = res.ReservedUpfront() + f.UsageCost
	if n := simtime.Duration(len(res.Jobs)); n > 0 {
		f.MeanWaiting = f.TotalWaiting / n
		f.MeanCompletion = completion / n
		for i, p := range fingerprintPercentiles {
			v, _ := stats.Percentile(waits, p)
			f.Percentiles[i] = simtime.Duration(v)
		}
	}
	if paid := float64(res.Reserved) * res.Horizon.Hours(); paid > 0 {
		f.Utilization = f.CPUHours[cloud.Reserved] / paid
	}
	f.Usage = replaySegments(res.Jobs, horizon)
	for s := range f.Usage[0] {
		f.PeakDemand = max(f.PeakDemand, f.Usage[0][s]+f.Usage[1][s]+f.Usage[2][s])
	}
	f.CDF = stats.NewWeightedCDF(lengths, savings)
	return f
}

// replaySegments is UsageSeries by a minute-level replay of the records'
// execution segments: each minute of [0, horizon) a segment covers adds
// its units to that minute's hour, and each hour's sum is divided by 60.
func replaySegments(jobs []metrics.JobResult, horizon simtime.Duration) [3][]float64 {
	var out [3][]float64
	slots := int(horizon / simtime.Hour)
	if slots <= 0 {
		return out
	}
	for o := range out {
		out[o] = make([]float64, slots)
	}
	for i := range jobs {
		for _, seg := range jobs[i].Segments {
			units := [3]int{cloud.Reserved: seg.Reserved, cloud.OnDemand: seg.OnDemand, cloud.Spot: seg.Spot}
			for m := max(seg.Interval.Start, 0); m < seg.Interval.End && int(m) < slots*60; m++ {
				for o, u := range units {
					out[o][m/60] += float64(u)
				}
			}
		}
	}
	for o := range out {
		for s := range out[o] {
			out[o][s] /= 60
		}
	}
	return out
}

// finishOrderTolerance bounds the relative difference between a record
// scan and the accumulator on the totals the accumulator folds in finish
// order rather than job-ID order: CPU·hours by option, the reserved
// utilization derived from them, and wasted CPU·hours. Measured on the
// cases of TestStreamingMatchesRetained when the scan was introduced: one
// or two ulps, 1.2e-16 to 2.8e-16 relative, on CPU·hours in six of the
// ten cases, and 1.9e-16 to 2.2e-16 on reserved utilization; wasted
// CPU·hours and every other aggregate exact.
const finishOrderTolerance = 1e-12

// checkRecordsMatchAccumulator compares a retained run's records with its
// own accumulator: every aggregate the scan reference recomputes from the
// records must equal the Result's answer bit for bit, except the
// finish-ordered totals, which must agree within finishOrderTolerance.
func checkRecordsMatchAccumulator(t *testing.T, res *metrics.Result) {
	t.Helper()
	got := fingerprint(res, res.Horizon)
	want := scanRecords(res, res.Horizon)
	want.Text = got.Text
	near := func(name string, g, w float64) {
		if math.Abs(g-w) > finishOrderTolerance*math.Max(math.Abs(g), math.Abs(w)) {
			t.Errorf("%s: accumulator %v, records %v (relative %.3g)", name, g, w, math.Abs(g-w)/math.Max(math.Abs(g), math.Abs(w)))
		}
	}
	for o := range got.CPUHours {
		near(fmt.Sprintf("CPUHours[%v]", cloud.Option(o)), got.CPUHours[o], want.CPUHours[o])
	}
	near("ReservedUtilization", got.Utilization, want.Utilization)
	near("TotalWastedCPUHours", got.Wasted, want.Wasted)
	want.CPUHours, want.Utilization, want.Wasted = got.CPUHours, got.Utilization, got.Wasted
	if !reflect.DeepEqual(got, want) {
		t.Errorf("accumulator disagrees with the retained records:\naccumulator %+v\nrecords     %+v", got, want)
	}
}

// TestStreamingMatchesRetained pins aggregates two ways for every
// mechanism the simulator models — the engine's reserved work
// conservation, spot with evictions, checkpointed spot, suspend-resume
// plans and both elastic allocators, the direct path and a plan replay
// that reuses its plan's memo:
//
//   - a streaming run must answer every aggregate query bit-identically
//     to a retained run of the same configuration;
//   - the retained run's records, scanned independently of the
//     accumulator, must reproduce its aggregates
//     (checkRecordsMatchAccumulator).
func TestStreamingMatchesRetained(t *testing.T) {
	tr, jobs := randomInstance(23)
	type runner func(Config, *workload.Trace) (*metrics.Result, error)
	// replayPlan decides once, then replays the plan for every run; the
	// first replay publishes the plan's memo, and the later ones must
	// reuse it rather than publish their own.
	replayPlan := func(t *testing.T) runner {
		var plan *DecisionPlan
		return func(cfg Config, jobs *workload.Trace) (*metrics.Result, error) {
			if plan == nil {
				plan = mustDecidePlan(t, cfg, jobs)
				return RunWithPlan(context.Background(), cfg, jobs, plan)
			}
			memo := plan.memo.Load()
			res, err := RunWithPlan(context.Background(), cfg, jobs, plan)
			if memo == nil || plan.memo.Load() != memo {
				t.Error("replay did not reuse the plan's memo")
			}
			return res, err
		}
	}
	type testCase struct {
		name   string
		jobs   *workload.Trace
		mutate func(*Config)
		direct bool
		run    func(t *testing.T) runner // nil runs Run
	}
	cases := []testCase{
		{name: "carbontime-plain", direct: true, mutate: func(c *Config) { c.Policy = policy.CarbonTime{} }},
		{name: "res-first", mutate: func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.Reserved = 10
			c.WorkConserving = true
		}},
		{name: "spot-evictions", mutate: func(c *Config) {
			c.Policy = policy.LowestWindow{}
			c.SpotMaxLen = 4 * simtime.Hour
			c.EvictionRate = 0.2
			c.Seed = 5
		}},
		{name: "checkpointed-spot", mutate: func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.SpotMaxLen = 12 * simtime.Hour
			c.EvictionRate = 0.15
			c.Seed = 8
			c.CheckpointInterval = simtime.Hour
		}},
		{name: "suspend-resume-plan", mutate: func(c *Config) { c.Policy = policy.WaitAwhile{} }},
		{name: "ecovisor-plan", mutate: func(c *Config) { c.Policy = policy.Ecovisor{} }},
		{name: "direct-reserved", direct: true, mutate: func(c *Config) {
			c.Policy = policy.CarbonTime{}
			c.Reserved = 10
		}},
		{name: "plan-replay-memo", direct: true, run: replayPlan, mutate: func(c *Config) {
			c.Policy = policy.LowestSlot{}
			c.Reserved = 6
		}},
	}
	etr, et := randomElasticInstance(23, 60)
	for _, name := range policy.AllocatorNames() {
		alloc, err := policy.AllocatorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testCase{name: "elastic-" + name, jobs: et.Jobs, mutate: func(c *Config) {
			*c = elasticConfig(etr, policy.CarbonTime{}, et, alloc)
			c.Reserved = 20
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(tr, nil)
			tc.mutate(&cfg)
			cfg.RetainJobs = false
			caseJobs := jobs
			if tc.jobs != nil {
				caseJobs = tc.jobs
			}
			run := runner(Run)
			if tc.run != nil {
				run = tc.run(t)
			}
			before := directRuns.Load()

			streaming, err := run(cfg, caseJobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(streaming.Jobs) != 0 {
				t.Fatalf("streaming run retained %d job records", len(streaming.Jobs))
			}
			retainedCfg := cfg
			retainedCfg.RetainJobs = true
			retained, err := run(retainedCfg, caseJobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(retained.Jobs) != caseJobs.Len() {
				t.Fatalf("retained run kept %d records, want %d", len(retained.Jobs), caseJobs.Len())
			}
			if direct := directRuns.Load() != before; direct != tc.direct {
				t.Fatalf("direct path served the runs: %v, want %v", direct, tc.direct)
			}
			horizon := streaming.Horizon
			got := fingerprint(streaming, horizon)
			want := fingerprint(retained, horizon)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("aggregates diverge between modes:\nstreaming %+v\nretained  %+v", got, want)
			}
			checkRecordsMatchAccumulator(t, retained)
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
