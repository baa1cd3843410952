package experiments

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/forecast"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Extensions beyond the paper's figures: ablations of GAIA's assumptions
// (perfect forecasts, queue-average length estimates) and the paper's
// stated future work (suspend-resume without exact lengths). IDs sort
// after the figures as "x01"..."x03".

func init() {
	register(Experiment{
		ID:    "x01-forecast",
		Title: "Ablation: Carbon-Time savings under imperfect CI forecasts",
		Run:   runX01Forecast,
	})
	register(Experiment{
		ID:    "x02-estimates",
		Title: "Ablation: sensitivity of Lowest-Window/Carbon-Time to the Javg estimate",
		Run:   runX02Estimates,
	})
	register(Experiment{
		ID:    "x03-suspend",
		Title: "Extension: suspend-resume GAIA without exact job lengths (future work §4.1)",
		Run:   runX03Suspend,
	})
}

// runX01Forecast checks the paper's perfect-forecast assumption two ways:
// synthetic multiplicative noise growing with lead time, and a real
// trained forecaster (forecast.SeasonalNaive) that only sees past data.
func runX01Forecast(scale Scale) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", scale)
	seasonal, err := forecast.NewSeasonalNaive(tr, 28, 0.9)
	if err != nil {
		return nil, err
	}

	t := NewTable("Extension x01 — Carbon-Time savings vs CIS quality (Alibaba, SA-AU)",
		"CIS", "carbon(norm)", "savings%", "wait(h)")
	rows := []struct {
		name string
		cis  carbon.Service
	}{
		{"perfect", carbon.NewPerfectService(tr)},
		{"noise 5%/day", carbon.NewNoisyService(tr, 0.05, seedCarbon+50)},
		{"noise 20%/day", carbon.NewNoisyService(tr, 0.20, seedCarbon+50)},
		{"noise 40%/day", carbon.NewNoisyService(tr, 0.40, seedCarbon+50)},
		{"seasonal-naive (trained)", seasonal},
	}
	// Cell 0 is the shared NoWait baseline (cacheable across figures).
	// The noisy and seasonal CIS rows are keyed by their forecast recipe,
	// so they are cached like the rest; having no decision plan, they
	// take the event engine when they compute.
	cells := []cell{{cfg: core.Config{Policy: policy.NoWait{}, Carbon: tr, Horizon: horizon(scale)}, jobs: jobs}}
	for _, r := range rows {
		cells = append(cells, cell{cfg: core.Config{
			Policy:  policy.CarbonTime{},
			Carbon:  tr,
			CIS:     r.cis,
			Horizon: horizon(scale),
		}, jobs: jobs})
	}
	results, err := runCells("x01-forecast", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, r := range rows {
		res := results[i+1]
		t.AddRowf(r.name,
			res.TotalCarbon()/base.TotalCarbon(),
			100*(1-res.TotalCarbon()/base.TotalCarbon()),
			res.MeanWaiting().Hours())
	}
	t.Caption = "expectation: savings degrade gracefully — most shifting targets the next diurnal trough, where forecast error is small"

	acc := NewTable("Forecaster accuracy (seasonal-naive, SA-AU)",
		"lead (h)", "MAPE", "RMSE (g/kWh)")
	for _, a := range seasonal.Evaluate([]int{1, 6, 12, 24, 48}) {
		acc.AddRowf(a.LeadHours, a.MAPE, a.RMSE)
	}
	return Tables{t, acc}, nil
}

// x02Scales are the factors x02 multiplies every queue's true Javg by.
var x02Scales = []float64{0.25, 0.5, 1, 2, 4}

// x02Cells returns x02's cells: the shared NoWait baseline, then a
// (Lowest-Window, Carbon-Time) pair per x02Scales entry, planning with the
// true queue averages times that factor.
func x02Cells(scale Scale) []cell {
	tr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", scale)
	// The Javg a run plans with when nothing overrides it: ×1 is a plain run.
	truth := policy.QueueTable(nil, jobs, nil)
	cells := []cell{{cfg: core.Config{Policy: policy.NoWait{}, Carbon: tr, Horizon: horizon(scale)}, jobs: jobs}}
	for _, scaleF := range x02Scales {
		override := make(map[workload.Queue]simtime.Duration, len(truth))
		for q, info := range truth {
			override[q] = simtime.Duration(float64(info.AvgLength) * scaleF)
		}
		for _, p := range []policy.Policy{policy.LowestWindow{}, policy.CarbonTime{}} {
			cells = append(cells, cell{cfg: core.Config{
				Policy:            p,
				Carbon:            tr,
				Horizon:           horizon(scale),
				AvgLengthOverride: override,
			}, jobs: jobs})
		}
	}
	return cells
}

// runX02Estimates perturbs the queue-average length estimate Javg that
// length-oblivious policies plan with, quantifying how coarse the
// "historical queue average" may be before savings collapse.
func runX02Estimates(scale Scale) (fmt.Stringer, error) {
	results, err := runCells("x02-estimates", x02Cells(scale))
	if err != nil {
		return nil, err
	}
	base := results[0]
	t := NewTable("Extension x02 — savings vs Javg estimate scale (Alibaba, SA-AU)",
		"Javg scale", "LW carbon(norm)", "CT carbon(norm)", "LW wait(h)", "CT wait(h)")
	for i, scaleF := range x02Scales {
		lw, ct := results[1+2*i], results[2+2*i]
		t.AddRowf(scaleF,
			lw.TotalCarbon()/base.TotalCarbon(), ct.TotalCarbon()/base.TotalCarbon(),
			lw.MeanWaiting().Hours(), ct.MeanWaiting().Hours())
	}
	t.Caption = "expectation: under-estimating Javg helps (shorter windows lock onto troughs; ×0.5 saves ~5 points more than the true average), while over-estimating gives up most of the saving (at ×2 Carbon-Time is near NoWait) — a coarse estimate should err short"
	return t, nil
}

// runX03Suspend evaluates the paper's future work: adding suspend-resume
// to GAIA's own (length-oblivious) scheduling. WaitAwhile-Est plans
// lowest-carbon slots for the queue-average length; the simulator adapts
// the plan to each job's true length.
func runX03Suspend(scale Scale) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", scale)
	t := NewTable("Extension x03 — suspend-resume without exact lengths (Alibaba, SA-AU)",
		"policy", "knows J", "suspends", "carbon(norm)", "wait(h)")
	rows := []struct {
		p      policy.Policy
		knowsJ string
		susp   string
	}{
		{policy.CarbonTime{}, "avg", "no"},
		{policy.LowestWindow{}, "avg", "no"},
		{policy.WaitAwhileEst{}, "avg", "yes"},
		{policy.WaitAwhile{}, "exact", "yes"},
	}
	// Cell 0 is the shared NoWait baseline, then one cell per row.
	cells := []cell{{cfg: core.Config{Policy: policy.NoWait{}, Carbon: tr, Horizon: horizon(scale)}, jobs: jobs}}
	for _, r := range rows {
		cells = append(cells, cell{cfg: core.Config{Policy: r.p, Carbon: tr, Horizon: horizon(scale)}, jobs: jobs})
	}
	results, err := runCells("x03-suspend", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, r := range rows {
		res := results[i+1]
		t.AddRowf(res.Label, r.knowsJ, r.susp,
			res.TotalCarbon()/base.TotalCarbon(),
			res.MeanWaiting().Hours())
	}
	t.Caption = "expectation: estimate-based suspend-resume recovers a large share of exact WaitAwhile's extra savings over uninterruptible GAIA policies"
	return t, nil
}
