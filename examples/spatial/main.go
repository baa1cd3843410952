// Spatial scheduling walkthrough: the future work the paper defers —
// choosing *where* as well as *when* each job runs. Each job is placed in
// the candidate region whose temporal schedule forecasts the least
// carbon; per-region clusters then run normally.
//
//	go run ./examples/spatial
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/geo"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func main() {
	regions := []*carbon.Trace{
		carbon.RegionSAAU.Generate(24*24, 1), // variable, deep solar troughs
		carbon.RegionONCA.Generate(24*24, 2), // low and stable
		carbon.RegionKYUS.Generate(24*24, 3), // high and stable
	}
	jobs := workload.AlibabaPAI().GenerateByCount(
		rand.New(rand.NewSource(8)), 2000, 3*simtime.Week)

	fmt.Println("temporal shifting only (Carbon-Time in one region):")
	for _, tr := range regions {
		res, err := core.Run(core.Config{Policy: policy.CarbonTime{}, Carbon: tr}, jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %8.2f kg\n", tr.Region(), res.TotalCarbonKg())
	}

	multi, err := geo.Run(geo.Config{Policy: policy.CarbonTime{}, Regions: regions}, jobs, core.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspatial + temporal: %.2f kg\n", multi.TotalCarbon()/1000)
	shares := multi.JobShare()
	for i, tr := range regions {
		fmt.Printf("  %-6s receives %4.1f%% of jobs\n", tr.Region(), 100*shares[i])
	}
	fmt.Println("\njobs overwhelmingly chase the cleanest grid; only deep solar")
	fmt.Println("troughs occasionally beat it. Region choice dominates temporal")
	fmt.Println("shifting — which is why the paper scopes to a single region.")
}
