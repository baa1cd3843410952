package geo

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/policy/policytest"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func flat(region string, hours int, ci float64) *carbon.Trace {
	vals := make([]float64, hours)
	for i := range vals {
		vals[i] = ci
	}
	return carbon.MustTrace(region, vals)
}

func TestValidation(t *testing.T) {
	jobs := workload.MustTrace("j", nil)
	if _, err := Run(Config{Regions: []*carbon.Trace{flat("a", 10, 1)}}, jobs, core.Run); err == nil {
		t.Error("missing policy should error")
	}
	if _, err := Run(Config{Policy: policy.NoWait{}}, jobs, core.Run); err == nil {
		t.Error("missing regions should error")
	}
}

func TestAllJobsGoToCleanRegion(t *testing.T) {
	dirty := flat("dirty", 24*9, 900)
	clean := flat("clean", 24*9, 50)
	jobs := workload.MustTrace("j", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: 100, Length: 3 * simtime.Hour, CPUs: 2},
	})
	res, err := Run(Config{
		Policy:  policy.CarbonTime{},
		Regions: []*carbon.Trace{dirty, clean},
	}, jobs, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	for id, region := range res.Assignments {
		if region != 1 {
			t.Errorf("job %d placed in dirty region", id)
		}
	}
	shares := res.JobShare()
	if shares[0] != 0 || shares[1] != 1 {
		t.Errorf("shares = %v", shares)
	}
	if res.PerRegion[0].JobCount() != 0 || res.PerRegion[1].JobCount() != 2 {
		t.Error("per-region job counts wrong")
	}
}

func TestSpatialNeverWorseThanSingleRegion(t *testing.T) {
	// Adding candidate regions can only reduce the forecast-optimal
	// carbon of each job; total carbon must not exceed the best single
	// region's run.
	regions := []*carbon.Trace{
		carbon.RegionSAAU.Generate(24*12, 1),
		carbon.RegionONCA.Generate(24*12, 2),
		carbon.RegionKYUS.Generate(24*12, 3),
	}
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(4)), 150, simtime.Week)
	multi, err := Run(Config{Policy: policy.CarbonTime{}, Regions: regions}, jobs, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range regions {
		single, err := core.Run(core.Config{Policy: policy.CarbonTime{}, Carbon: tr}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if multi.TotalCarbon() > single.TotalCarbon()+1e-6 {
			t.Errorf("spatial %v worse than single region %s %v",
				multi.TotalCarbon(), tr.Region(), single.TotalCarbon())
		}
	}
	if multi.MeanWaiting() < 0 {
		t.Error("negative waiting")
	}
	if multi.TotalCost() <= 0 {
		t.Error("cost should be positive")
	}
}

func TestPlanPoliciesSupported(t *testing.T) {
	regions := []*carbon.Trace{
		carbon.RegionSAAU.Generate(24*10, 5),
		carbon.RegionSE.Generate(24*10, 6),
	}
	jobs := workload.MustTrace("j", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
		{Arrival: 50, Length: 5 * simtime.Hour, CPUs: 1},
	})
	res, err := Run(Config{Policy: policy.WaitAwhile{}, Regions: regions}, jobs, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range res.PerRegion {
		total += r.JobCount()
	}
	if total != 2 {
		t.Errorf("jobs executed = %d", total)
	}
}

func TestEmptyWorkload(t *testing.T) {
	res, err := Run(Config{
		Policy:  policy.NoWait{},
		Regions: []*carbon.Trace{flat("a", 10, 100)},
	}, workload.MustTrace("empty", nil), core.Run)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCarbon() != 0 || res.MeanWaiting() != 0 {
		t.Error("empty workload should be zero")
	}
	if s := res.JobShare(); s[0] != 0 {
		t.Errorf("shares = %v", s)
	}
}

// TestBorrowedPlansNotRetained holds placement to the borrowed-plan
// contract of policy.Decision: every suspend-resume policy, wrapped in
// policytest.Clobbering (which overwrites each plan it returned once its
// Context decides again), must place every job and simulate every region
// byte for byte as the bare policy does.
func TestBorrowedPlansNotRetained(t *testing.T) {
	regions := []*carbon.Trace{
		carbon.RegionSAAU.Generate(24*12, 1),
		carbon.RegionONCA.Generate(24*12, 2),
		carbon.RegionKYUS.Generate(24*12, 3),
	}
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(4)), 300, simtime.Week)
	for _, p := range []policy.Policy{policy.WaitAwhile{}, policy.WaitAwhileEst{}, policy.Ecovisor{}} {
		want, err := Run(Config{Policy: p, Regions: regions}, jobs, core.Run)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Config{Policy: policytest.Clobber(p), Regions: regions}, jobs, core.Run)
		if err != nil {
			t.Fatalf("%s through Clobbering: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got.Assignments, want.Assignments) {
			t.Errorf("%s: placements differ through Clobbering", p.Name())
		}
		for i := range regions {
			a := metrics.EncodeAccumulator(got.PerRegion[i].Accumulator())
			b := metrics.EncodeAccumulator(want.PerRegion[i].Accumulator())
			if !bytes.Equal(a, b) {
				t.Errorf("%s: region %s simulates differently through Clobbering", p.Name(), regions[i].Region())
			}
		}
	}
}
