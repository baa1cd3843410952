package gaia

// Elastic-subsystem benchmarks: a year-long malleable run through the
// hourly reallocation loop, and the DAG pipeline workload under the
// critical-path policy. The "/elastic" sub-benchmark names follow the
// gaia-bench -pathmix convention (stamped elastic/engine): these runs are
// ineligible for the direct path by construction, so their ns/op tracks
// the event engine driving resize and precedence-release events.

import (
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// elasticYearFixture builds a 20k-job year of alibaba-style work where
// 60% of the jobs are malleable (a third of those preemptible), near the
// x09 figure's 40/35/25 rigid/scalable/preemptible mix at benchmark scale.
func elasticYearFixture() (*carbon.Trace, *workload.ElasticTrace) {
	tr := carbon.RegionSAAU.GenerateYear(1)
	jobs := workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(2)), 20_000, 350*simtime.Day)
	specs := make([]workload.ElasticSpec, len(jobs.Jobs))
	for i := range specs {
		switch i % 5 {
		case 0, 1:
			specs[i] = workload.DegenerateSpec()
		case 2, 3:
			specs[i] = workload.ElasticSpec{MinReplicas: 1, MaxReplicas: 4, Curve: workload.AmdahlCurve(0.9, 4)}
		default:
			specs[i] = workload.ElasticSpec{MinReplicas: 0, MaxReplicas: 2, Curve: workload.AmdahlCurve(0.85, 2)}
		}
	}
	return tr, workload.MustElasticTrace("bench-elastic-year", jobs.Jobs, specs, nil)
}

// BenchmarkElasticYear runs the malleable year end to end: Carbon-Time
// start decisions plus Greedy-Marginal resizes at every hour boundary,
// scale-ups bounded by the idle reserved pool.
func BenchmarkElasticYear(b *testing.B) {
	tr, et := elasticYearFixture()
	cfg := core.Config{
		Policy:    policy.CarbonTime{},
		Carbon:    tr,
		Reserved:  60,
		Elastic:   et,
		Allocator: policy.GreedyMarginal{},
		Horizon:   simtime.Year,
	}
	b.Run("elastic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(cfg, et.Jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// dagFixture builds 2000 unbalanced diamond pipelines (10k jobs, 12k
// edges) like the x10 figure's workload at benchmark scale.
func dagFixture() (*carbon.Trace, *workload.ElasticTrace) {
	tr := carbon.RegionSAAU.GenerateYear(1)
	jobs, edges := dagJobs(2000)
	specs := make([]workload.ElasticSpec, len(jobs))
	for i := range specs {
		specs[i] = workload.DegenerateSpec()
	}
	return tr, workload.MustElasticTrace("bench-dag", jobs, specs, edges)
}

func dagJobs(n int) ([]workload.Job, []workload.Edge) {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]workload.Job, 0, 5*n)
	edges := make([]workload.Edge, 0, 6*n)
	for i := 0; i < n; i++ {
		arrival := simtime.Time(rng.Int63n(int64(340 * simtime.Day)))
		for _, spec := range []struct {
			length simtime.Duration
			cpus   int
		}{
			{simtime.Duration(30+rng.Int63n(60)) * simtime.Minute, 2},
			{simtime.Duration(600+rng.Int63n(240)) * simtime.Minute, 2},
			{simtime.Duration(150+rng.Int63n(90)) * simtime.Minute, 8},
			{simtime.Duration(150+rng.Int63n(90)) * simtime.Minute, 8},
			{simtime.Duration(30+rng.Int63n(60)) * simtime.Minute, 2},
		} {
			q := workload.QueueShort
			if spec.length > 2*simtime.Hour {
				q = workload.QueueLong
			}
			jobs = append(jobs, workload.Job{Arrival: arrival, Length: spec.length, CPUs: spec.cpus, Queue: q})
		}
		b := 5 * i
		edges = append(edges,
			workload.Edge{Src: b, Dst: b + 1},
			workload.Edge{Src: b, Dst: b + 2},
			workload.Edge{Src: b, Dst: b + 3},
			workload.Edge{Src: b + 1, Dst: b + 4},
			workload.Edge{Src: b + 2, Dst: b + 4},
			workload.Edge{Src: b + 3, Dst: b + 4})
	}
	return jobs, edges
}

// BenchmarkDAGCriticalPath measures the precedence machinery: the /build
// sub-benchmark is trace construction (acyclicity check plus the
// critical-path/slack analysis), /elastic the scheduling run whose every
// stage release routes through predecessor bookkeeping and whose policy
// caps each wait by the precomputed slack.
func BenchmarkDAGCriticalPath(b *testing.B) {
	tr, et := dagFixture()
	b.Run("build", func(b *testing.B) {
		jobs, edges := dagJobs(2000)
		specs := make([]workload.ElasticSpec, len(jobs))
		for i := range specs {
			specs[i] = workload.DegenerateSpec()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workload.NewElasticTrace("bench-dag", jobs, specs, edges); err != nil {
				b.Fatal(err)
			}
		}
	})
	cfg := core.Config{
		Policy:  policy.CriticalPathShift{},
		Carbon:  tr,
		Elastic: et,
		Horizon: simtime.Year,
	}
	b.Run("elastic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(cfg, et.Jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
