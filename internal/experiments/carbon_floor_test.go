package experiments

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/scaling"
	"github.com/carbonsched/gaia/internal/simtime"
)

// floorUnit is one replica running through one whole hour slot: it does
// marginal serial-hours of work and emits ci·KWPerCPU·cpus grams, where
// ci is the slot's CI integral.
type floorUnit struct {
	ci, marginal float64
}

// carbonFloor returns the least carbon any schedule can emit doing work
// serial-hours within the hour slots first..last of tr, on replicas of
// cpus CPUs each whose marginal throughputs are curve. It buys (slot,
// replica) units in order of carbon per unit of work, ci/curve[r], and
// takes the last one only by the fraction still needed. The trace is
// constant within each hour, so a replica running part of a slot emits
// that part of its unit; offering every slot a whole hour only loosens
// the bound on partial hours. lastUnit is the whole carbon of the last
// unit taken. units is scratch space, returned for reuse.
func carbonFloor(tr *carbon.Trace, first, last int, work float64, cpus int, curve []float64, pw cloud.Power, units []floorUnit) (floor, lastUnit float64, _ []floorUnit) {
	units = units[:0]
	for s := first; s <= last; s++ {
		start := simtime.Time(simtime.Duration(s) * simtime.Hour)
		ci := tr.Integral(simtime.Interval{Start: start, End: start.Add(simtime.Hour)})
		for _, m := range curve {
			units = append(units, floorUnit{ci: ci, marginal: m})
		}
	}
	slices.SortFunc(units, func(a, b floorUnit) int {
		return cmp.Compare(a.ci/a.marginal, b.ci/b.marginal)
	})
	remaining := work
	for _, u := range units {
		if remaining <= 1e-12 {
			break
		}
		f := math.Min(1, remaining/u.marginal)
		lastUnit = u.ci * pw.KWPerCPU * float64(cpus)
		floor += f * lastUnit
		remaining -= f * u.marginal
	}
	return floor, lastUnit, units
}

// TestScalingCarbonFloors checks both CarbonScaler implementations against
// per-job carbon floors computed without the scheduler or the planner:
//
//   - every job of all 20 x09 cells emits at least its floor over
//     [arrival, observed finish] (rigid cells on the curve {1}, the
//     elastic cell on each job's curve up to its MaxReplicas);
//   - every x08 PlanJob plan, at width 8 and width 1, lies between its
//     floor over the deadline window and that floor plus one replica-hour
//     in the window's dirtiest slot: the planner buys the same units in
//     the same order, but takes the last one whole.
func TestScalingCarbonFloors(t *testing.T) {
	pw := cloud.DefaultPower()
	var units []floorUnit
	rigid := []float64{1}

	et := elasticYearTrace(Quick)
	cells := x09Cells(Quick)
	if len(cells) != 20 {
		t.Fatalf("x09 has %d cells, want 20", len(cells))
	}
	records, minRatio := 0, math.Inf(1)
	for i, c := range cells {
		cfg := c.cfg
		cfg.RetainJobs = true
		res, err := core.Run(cfg, c.jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != len(c.jobs.Jobs) {
			t.Fatalf("cell %d: %d records for %d jobs", i, len(res.Jobs), len(c.jobs.Jobs))
		}
		for _, r := range res.Jobs {
			curve := rigid
			if cfg.Elastic != nil {
				spec := et.Spec(r.JobID)
				curve = spec.Curve[:spec.MaxReplicas]
			}
			var floor float64
			floor, _, units = carbonFloor(cfg.Carbon, r.Arrival.HourIndex(), (r.Finish - 1).HourIndex(),
				r.Length.Hours(), r.CPUs, curve, pw, units)
			if r.Carbon < floor*(1-1e-9) {
				t.Errorf("cell %d (%s) job %d: carbon %v below its floor %v", i, cfg.Policy.Name(), r.JobID, r.Carbon, floor)
			}
			if floor > 0 {
				minRatio = math.Min(minRatio, r.Carbon/floor)
			}
			records++
		}
	}
	t.Logf("x09: %d records, lowest carbon/floor %.15g", records, minRatio)

	tr := regionTrace("SA-AU")
	cis := carbon.NewPerfectService(tr)
	plans, minPlanRatio, maxGapShare := 0, math.Inf(1), 0.0
	for _, job := range x08Jobs(Quick) {
		first, last := job.Arrival.HourIndex(), (job.Arrival.Add(job.Deadline) - 1).HourIndex()
		var dirtiest float64
		for s := first; s <= last; s++ {
			start := simtime.Time(simtime.Duration(s) * simtime.Hour)
			dirtiest = math.Max(dirtiest, tr.Integral(simtime.Interval{Start: start, End: start.Add(simtime.Hour)}))
		}
		for _, width := range []int{len(job.Curve), 1} {
			j := job
			j.Curve = job.Curve[:width]
			plan, err := scaling.PlanJob(j, cis)
			if err != nil {
				t.Fatal(err)
			}
			var floor, lastUnit float64
			floor, lastUnit, units = carbonFloor(tr, first, last, j.Work, 1, j.Curve, pw, units)
			got := plan.Carbon(tr, pw)
			if got < floor*(1-1e-9) || got > floor+dirtiest*pw.KWPerCPU*(1+1e-9) {
				t.Errorf("x08 job at %v, width %d: plan carbon %v outside [%v, %v + one replica-hour at %v]",
					j.Arrival, width, got, floor, floor, dirtiest)
			}
			minPlanRatio = math.Min(minPlanRatio, got/floor)
			maxGapShare = math.Max(maxGapShare, (got-floor)/lastUnit)
			plans++
		}
	}
	t.Logf("x08: %d plans, lowest plan/floor %.6g, largest gap %.3g of the floor's last unit", plans, minPlanRatio, maxGapShare)
}
