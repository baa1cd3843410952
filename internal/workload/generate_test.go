package workload

import (
	"math"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

func TestPoissonSectionThree(t *testing.T) {
	spec := SectionThreeWorkload()
	tr := spec.Generate(rand.New(rand.NewSource(1)), 30*simtime.Day)
	// Mean demand should be ≈ meanLength/meanInterarrival × CPUs = 5.
	d := tr.MeanDemand(30 * simtime.Day)
	if d < 4 || d > 6 {
		t.Errorf("Poisson mean demand = %v, want ≈5", d)
	}
	ml := tr.MeanLength().Hours()
	if ml < 3.4 || ml > 4.6 {
		t.Errorf("Poisson mean length = %vh, want ≈4", ml)
	}
	for _, j := range tr.Jobs {
		if j.CPUs != 1 {
			t.Fatal("Section-3 jobs are 1 CPU")
		}
	}
}

func TestPoissonEmptyHorizon(t *testing.T) {
	tr := SectionThreeWorkload().Generate(rand.New(rand.NewSource(1)), 0)
	if tr.Len() != 0 {
		t.Errorf("zero horizon produced %d jobs", tr.Len())
	}
}

func TestGenerateByCount(t *testing.T) {
	fam := AlibabaPAI()
	tr := fam.GenerateByCount(rand.New(rand.NewSource(1)), 5000, 7*simtime.Day)
	if tr.Len() != 5000 {
		t.Fatalf("GenerateByCount produced %d jobs", tr.Len())
	}
	for _, j := range tr.Jobs {
		if j.Arrival < 0 || j.Arrival >= simtime.Time(7*simtime.Day) {
			t.Fatal("arrival outside horizon")
		}
		if j.Length < fam.MinLen || j.Length > fam.MaxLen {
			t.Fatalf("length %v outside [%v, %v]", j.Length, fam.MinLen, fam.MaxLen)
		}
		if j.CPUs < 1 || j.CPUs > 100 {
			t.Fatalf("cpus %d out of range", j.CPUs)
		}
	}
	if empty := fam.GenerateByCount(rand.New(rand.NewSource(1)), 0, simtime.Day); empty.Len() != 0 {
		t.Error("n=0 should be empty")
	}
}

func TestAlibabaLengthShape(t *testing.T) {
	// Paper (Figures 5a, 9): roughly half the jobs are under an hour; a
	// small share exceeds 24 h; medium jobs carry most compute.
	tr := AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(2)), 30000, simtime.Year)
	cdf := tr.LengthCDF()
	under1h := cdf.At(60)
	if under1h < 0.35 || under1h > 0.65 {
		t.Errorf("share of <1h jobs = %v, want ≈0.5", under1h)
	}
	over24h := 1 - cdf.At(24*60)
	if over24h < 0.01 || over24h > 0.15 {
		t.Errorf("share of >24h jobs = %v, want small but nonzero", over24h)
	}
}

func TestMustangRespectsCap(t *testing.T) {
	tr := MustangHPC().GenerateByCount(rand.New(rand.NewSource(3)), 20000, simtime.Year)
	for _, j := range tr.Jobs {
		if j.Length > 16*simtime.Hour {
			t.Fatalf("Mustang job length %v exceeds 16h cap", j.Length)
		}
	}
}

func TestAzureHasMultiDayTail(t *testing.T) {
	tr := AzureVM().GenerateByCount(rand.New(rand.NewSource(4)), 30000, simtime.Year)
	over24 := 1 - tr.LengthCDF().At(24*60)
	if over24 < 0.05 {
		t.Errorf("Azure >24h share = %v, want a substantial tail", over24)
	}
}

func TestDemandCVContrast(t *testing.T) {
	// §6.4.4: demand CV ≈0.8 for Mustang, ≈0.3 for Azure.
	rng := rand.New(rand.NewSource(5))
	horizon := 60 * simtime.Day
	mus := MustangHPC().GenerateByDemand(rng, 468, horizon)
	az := AzureVM().GenerateByDemand(rand.New(rand.NewSource(6)), 142, horizon)
	cvM := mus.DemandCV(horizon)
	cvA := az.DemandCV(horizon)
	if cvM < 0.45 || cvM > 1.3 {
		t.Errorf("Mustang demand CV = %v, want ≈0.8", cvM)
	}
	if cvA < 0.1 || cvA > 0.5 {
		t.Errorf("Azure demand CV = %v, want ≈0.3", cvA)
	}
	if cvM <= cvA {
		t.Errorf("Mustang CV %v should exceed Azure CV %v", cvM, cvA)
	}
}

func TestGenerateByDemandHitsTarget(t *testing.T) {
	horizon := 60 * simtime.Day
	for _, fam := range []Family{MustangHPC(), AlibabaPAI(), AzureVM()} {
		tr := fam.GenerateByDemand(rand.New(rand.NewSource(7)), 100, horizon)
		got := tr.MeanDemand(horizon)
		if math.Abs(got-100)/100 > 0.2 {
			t.Errorf("%s: mean demand %v, want ≈100", fam.Name, got)
		}
	}
	empty := AlibabaPAI().GenerateByDemand(rand.New(rand.NewSource(7)), 0, horizon)
	if empty.Len() != 0 {
		t.Error("target=0 should be empty")
	}
}

func TestWeekVariantCapsCPUs(t *testing.T) {
	tr := AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(8)), 1000, simtime.Week)
	for _, j := range tr.Jobs {
		if j.CPUs > 4 {
			t.Fatalf("week trace job with %d CPUs", j.CPUs)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(9)), 500, simtime.Week)
	b := AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(9)), 500, simtime.Week)
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatal("same seed must generate identical traces")
		}
	}
}
