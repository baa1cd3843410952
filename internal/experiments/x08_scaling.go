package experiments

import (
	"fmt"
	"math/rand"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/scaling"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
	"github.com/carbonsched/gaia/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "x08-scaling",
		Title: "Extension: demand scaling as a carbon-saving modality (conclusion's future work)",
		Run:   runX08Scaling,
	})
}

// runX08Scaling compares the carbon-saving modalities on elastic batch
// jobs in South Australia: running serially at arrival (NoWait), shifting
// the serial run in time, suspend-resume at unit width, and
// CarbonScaler-style width scaling (run wide in clean hours). Scaling
// trades extra CPU-hours (Amdahl inefficiency) for the freedom to
// concentrate work into the cleanest hours.
func runX08Scaling(scale Scale) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	cis := carbon.NewPerfectService(tr)
	jobs := x08Jobs(scale)
	pw := cloud.DefaultPower()

	type agg struct {
		carbonG, cpuH, complH float64
	}
	modalities := []string{
		"static-1 (NoWait)", "temporal shift (k=1)", "suspend-resume (k=1)", "carbon-scaler (k≤8)",
	}

	// Each job's four plans (serial, shifted, suspend-resume, scaled) are
	// computed in parallel; per-modality sums are then accumulated in job
	// order so totals match the sequential loop bit for bit.
	measure := func(plan scaling.Plan, job scaling.ElasticJob) agg {
		return agg{
			carbonG: plan.Carbon(tr, pw),
			cpuH:    plan.CPUHours(),
			complH:  plan.Completion(job.Arrival).Sub(job.Arrival).Hours(),
		}
	}
	perJob, err := par.Map(Parallelism(), jobs, func(_ int, job scaling.ElasticJob) ([4]agg, error) {
		var out [4]agg
		serial, err := scaling.StaticPlan(job, 1)
		if err != nil {
			return out, err
		}
		out[0] = measure(serial, job)

		// Temporal shifting of the serial run: best contiguous start.
		shifted, err := bestShiftedSerial(job, cis, tr)
		if err != nil {
			return out, err
		}
		out[1] = measure(shifted, job)

		// Suspend-resume at unit width = scaling capped at 1.
		narrow := job
		narrow.Curve = job.Curve[:1]
		sr, err := scaling.PlanJob(narrow, cis)
		if err != nil {
			return out, err
		}
		out[2] = measure(sr, job)

		scaler, err := scaling.PlanJob(job, cis)
		if err != nil {
			return out, err
		}
		out[3] = measure(scaler, job)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	results := map[string]*agg{}
	for _, name := range modalities {
		results[name] = &agg{}
	}
	for _, out := range perJob {
		for m, name := range modalities {
			a := results[name]
			a.carbonG += out[m].carbonG
			a.cpuH += out[m].cpuH
			a.complH += out[m].complH
		}
	}

	base := results["static-1 (NoWait)"]
	t := NewTable("Extension x08 — carbon-saving modalities on elastic jobs (SA-AU, Amdahl p=0.9)",
		"modality", "carbon(norm)", "cpu·h(norm)", "mean completion(h)")
	for _, name := range modalities {
		a := results[name]
		t.AddRowf(name,
			a.carbonG/base.carbonG,
			a.cpuH/base.cpuH,
			a.complH/float64(len(jobs)))
	}
	t.Caption = "expectation: scaling saves the most carbon and completes faster than unit-width suspend-resume, paying extra CPU-hours (Amdahl inefficiency) — the energy-vs-carbon tension CarbonScaler navigates"
	return t, nil
}

// x08Jobs draws x08's elastic jobs: SA-AU arrivals spread over the
// horizon, log-normal serial work, one shared Amdahl(0.9) curve up to 8
// CPUs, and a deadline 48 hours past the job's serial length.
func x08Jobs(scale Scale) []scaling.ElasticJob {
	rng := rand.New(rand.NewSource(seedWorkload + 80))
	nJobs := 300
	if scale == Full {
		nJobs = 3000
	}
	span := horizon(scale) - 4*simtime.Day
	lengths := stats.NewTruncLogNormal(rng, 1.6, 1.0, 0.5, 36) // serial hours
	curve := workload.AmdahlCurve(0.9, 8)
	jobs := make([]scaling.ElasticJob, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		arrival := simtime.Time(rng.Float64() * float64(span))
		work := lengths.Sample()
		jobs = append(jobs, scaling.ElasticJob{
			Arrival:  arrival,
			Work:     work,
			Curve:    curve,
			Deadline: simtime.HoursDur(work) + 48*simtime.Hour,
		})
	}
	return jobs
}

// bestShiftedSerial finds the lowest-carbon contiguous serial (k=1) run
// within the job's deadline.
func bestShiftedSerial(job scaling.ElasticJob, cis carbon.Service, tr *carbon.Trace) (scaling.Plan, error) {
	runLen := simtime.HoursDur(job.Work)
	latest := job.Arrival.Add(job.Deadline - runLen)
	bestStart := job.Arrival
	bestC := cis.ForecastIntegral(job.Arrival, simtime.Interval{Start: job.Arrival, End: job.Arrival.Add(runLen)})
	for s := job.Arrival; s <= latest; s = s.Add(simtime.Hour) {
		c := cis.ForecastIntegral(job.Arrival, simtime.Interval{Start: s, End: s.Add(runLen)})
		if c < bestC {
			bestStart, bestC = s, c
		}
	}
	shift := job
	shift.Arrival = bestStart
	return scaling.StaticPlan(shift, 1)
}
