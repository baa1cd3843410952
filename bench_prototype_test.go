package gaia

import (
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// BenchmarkPrototypeScale runs the node-level prototype runtime
// (internal/batch over internal/cluster) at four weeks and 5k jobs, the
// inputs of `gaia-sim -runtime prototype -policy wait-awhile -jobs 5000
// -days 28 -region SA-AU -reserved 40`. WaitAwhile's suspend-resume
// segments churn the fleet to ~12k launched nodes, so a return to
// per-acquisition fleet scans costs seconds per op rather than
// milliseconds.
func BenchmarkPrototypeScale(b *testing.B) {
	const (
		nJobs = 5000
		days  = 28
	)
	cfg := batch.Config{
		Policy:        policy.WaitAwhile{},
		Carbon:        carbon.RegionSAAU.Generate((days+3)*24, 2022),
		ReservedNodes: 40,
		Horizon:       (days + 3) * simtime.Day,
		Seed:          1,
	}
	jobs := workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(1)), nJobs, days*simtime.Day)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := batch.Run(cfg, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != nJobs {
			b.Fatalf("completed %d jobs", len(res.Jobs))
		}
	}
}
