package experiments

import (
	"fmt"
	"math/rand"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/viz"
	"github.com/carbonsched/gaia/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig01",
		Title: "Grid carbon intensity for three regions: diurnal and spatial variation",
		Run:   runFig01,
	})
	register(Experiment{
		ID:    "fig02",
		Title: "The carbon/cost/completion tension of Wait Awhile on the Section-3 workload",
		Run:   runFig02,
	})
	register(Experiment{
		ID:    "fig05",
		Title: "Job length and CPU demand distributions of the sampled Alibaba-PAI traces",
		Run:   runFig05,
	})
	register(Experiment{
		ID:    "fig06",
		Title: "Carbon intensity classification across cloud regions",
		Run:   runFig06,
	})
	register(Experiment{
		ID:    "fig07",
		Title: "Monthly mean carbon intensity, California vs South Australia",
		Run:   runFig07,
	})
}

// runFig01 reproduces Figure 1: three days of CI for California, Ontario
// and the Netherlands, with the paper's headline variation factors
// (up to 3.37× temporal within a region, ≈9× spatial across regions).
func runFig01(Scale) (fmt.Stringer, error) {
	regions := []string{"CA-US", "ON-CA", "NL"}
	t := NewTable("Figure 1 — three-day carbon intensity by region (g·CO2eq/kWh)",
		"region", "mean", "min", "max", "peak/trough", "shape (72h)")
	window := simtime.Interval{Start: 0, End: simtime.Time(3 * simtime.Day)}
	var meanMin, meanMax float64
	// Search the year for each region's widest 3-day swing, like the
	// paper's hand-picked illustrative days.
	for _, code := range regions {
		tr := regionTrace(code)
		bestRatio, bestDay := 0.0, 0
		for day := 0; day+3 <= 365; day++ {
			iv := simtime.Interval{
				Start: simtime.Time(simtime.Duration(day) * simtime.Day),
				End:   simtime.Time(simtime.Duration(day+3) * simtime.Day),
			}
			if r := tr.PeakToTrough(iv); r > bestRatio {
				bestRatio, bestDay = r, day
			}
		}
		iv := simtime.Interval{
			Start: simtime.Time(simtime.Duration(bestDay) * simtime.Day),
			End:   simtime.Time(simtime.Duration(bestDay+3) * simtime.Day),
		}
		sub, err := tr.Slice(bestDay*24, (bestDay+3)*24)
		if err != nil {
			return nil, err
		}
		s := sub.Summary()
		mean := tr.MeanOver(window)
		if meanMin == 0 || mean < meanMin {
			meanMin = mean
		}
		if mean > meanMax {
			meanMax = mean
		}
		t.AddRowf(code, s.Mean, s.Min, s.Max, tr.PeakToTrough(iv),
			viz.Sparkline(viz.Downsample(sub.Values(), 36)))
	}
	t.Caption = fmt.Sprintf("spatial variation (max/min regional mean over the window): %.2fx (paper: ~9x; temporal paper: up to 3.37x)",
		meanMax/meanMin)
	return t, nil
}

// runFig02 reproduces the Section-3/Figure-2 tension demo: a three-day
// Poisson workload (λ=48 min, J̄=4 h, 1 CPU) on 5 reserved instances, in
// California (February) and in low-variability Sweden. Paper: CA −36 %
// carbon, +68 % cost, +5.3 % completion; Sweden −4 % carbon, +76 % cost,
// 4.9× completion.
func runFig02(Scale) (fmt.Stringer, error) {
	// Slice February (+slack for windows) out of the year traces.
	febStart := simtime.MonthInterval(1).Start.HourIndex()
	caFeb, err := regionTrace("CA-US").Slice(febStart, febStart+9*24)
	if err != nil {
		return nil, err
	}
	seFeb, err := regionTrace("SE").Slice(febStart, febStart+9*24)
	if err != nil {
		return nil, err
	}

	jobs := workload.SectionThreeWorkload().Generate(
		rand.New(rand.NewSource(seedWorkload+20)), 3*simtime.Day)

	t := NewTable("Figure 2 — Wait Awhile vs NoWait, Section-3 workload, R=5",
		"region", "metric", "NoWait", "WaitAwhile", "ratio")
	regions := []struct {
		name  string
		trace *carbon.Trace
	}{{"CA-US(Feb)", caFeb}, {"SE(Feb)", seFeb}}
	// Each region contributes a (NoWait, WaitAwhile) cell pair.
	var cells []cell
	for _, rc := range regions {
		for _, p := range []policy.Policy{policy.NoWait{}, policy.WaitAwhile{}} {
			cells = append(cells, cell{core.Config{
				Policy:   p,
				Carbon:   rc.trace,
				Reserved: 5,
				// The example uses a 24 h maximum wait for all jobs.
				Queues: workload.PaperQueues(24*simtime.Hour, 24*simtime.Hour),
				// Reserved capacity is paid over the experiment span
				// (3 days of arrivals plus the scheduling tail).
				Horizon: 5 * simtime.Day,
			}, jobs})
		}
	}
	results, err := runCells("fig02", cells)
	if err != nil {
		return nil, err
	}
	for i, rc := range regions {
		base, wa := results[2*i], results[2*i+1]
		rel := wa.CompareTo(base)
		t.AddRowf(rc.name, "carbon (kg)", base.TotalCarbonKg(), wa.TotalCarbonKg(), rel.Carbon)
		t.AddRowf(rc.name, "cost ($)", base.TotalCost(), wa.TotalCost(), rel.Cost)
		t.AddRowf(rc.name, "completion (h)", base.MeanCompletion().Hours(), wa.MeanCompletion().Hours(), rel.Completion)
		// Figure 2a's mechanism: the carbon-aware schedule concentrates
		// demand into low-CI spikes served by on-demand capacity.
		horizon := 5 * simtime.Day
		basePeak := base.PeakDemand(horizon)
		waPeak := wa.PeakDemand(horizon)
		t.AddRowf(rc.name, "peak demand", basePeak, waPeak, safeDiv(waPeak, basePeak))
	}
	t.Caption = "paper: CA-US 0.64x carbon, 1.68x cost, 1.053x completion; SE 0.96x carbon, 1.76x cost, 4.9x completion"
	return t, nil
}

// runFig05 reproduces Figure 5: job length and CPU demand distribution
// quantiles for the year-long (100k) and week-long (1k) Alibaba samples.
func runFig05(scale Scale) (fmt.Stringer, error) {
	year := yearTrace("alibaba", scale)
	week := prototypeWeek()
	lengths := NewTable("Figure 5a — job length CDF points (fraction of jobs ≤ x)",
		"trace", "≤10min", "≤1h", "≤3h", "≤12h", "≤24h", "≤72h")
	demands := NewTable("Figure 5b — CPU demand CDF points (fraction of jobs ≤ x)",
		"trace", "≤1", "≤2", "≤4", "≤10", "≤100")
	for _, tc := range []struct {
		name  string
		trace *workload.Trace
	}{{"year-100k", year}, {"week-1k", week}} {
		lc := tc.trace.LengthCDF()
		lengths.AddRowf(tc.name,
			lc.At(10), lc.At(60), lc.At(3*60), lc.At(12*60), lc.At(24*60), lc.At(72*60))
		cc := tc.trace.CPUCDF()
		demands.AddRowf(tc.name, cc.At(1), cc.At(2), cc.At(4), cc.At(10), cc.At(100))
	}
	demands.Caption = fmt.Sprintf(
		"week trace CPUs capped at 4 (prototype budget); year jobs=%d week jobs=%d",
		year.Len(), week.Len())
	return Tables{lengths, demands}, nil
}

// runFig06 reproduces Figure 6: the regions' mean CI and
// stability classification.
func runFig06(Scale) (fmt.Stringer, error) {
	t := NewTable("Figure 6 — carbon intensity across cloud regions (full year)",
		"region", "class", "mean", "std", "CV", "min", "max")
	for _, spec := range carbon.Regions() {
		s := regionTrace(spec.Code).Summary()
		t.AddRowf(spec.Code, spec.Class, s.Mean, s.Std, s.CV, s.Min, s.Max)
	}
	return t, nil
}

// runFig07 reproduces Figure 7: monthly mean CI for California and South
// Australia (whose mean roughly doubles July→December).
func runFig07(Scale) (fmt.Stringer, error) {
	ca := regionTrace("CA-US").MonthlyMeans()
	sa := regionTrace("SA-AU").MonthlyMeans()
	t := NewTable("Figure 7 — monthly mean carbon intensity (g/kWh)",
		"month", "CA-US", "SA-AU")
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun",
		"Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	for m, name := range months {
		t.AddRowf(name, ca[m], sa[m])
	}
	t.Caption = fmt.Sprintf("SA-AU Dec/Jul ratio: %.2f (paper: ≈2)\nCA-US year %s\nSA-AU year %s",
		sa[11]/sa[6], viz.Sparkline(ca[:]), viz.Sparkline(sa[:]))
	return t, nil
}
