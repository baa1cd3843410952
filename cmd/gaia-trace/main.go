// Command gaia-trace generates and inspects the simulator's input traces:
// synthetic carbon-intensity series for the built-in grid regions,
// synthetic workload traces for the production-trace stand-ins, and
// ERCOT-style paired carbon/price series.
//
// Examples:
//
//	# A year of South Australian carbon intensity to CSV:
//	gaia-trace -kind carbon -region SA-AU -hours 8760 -o sa.csv
//
//	# A week-long 1000-job Alibaba-like workload:
//	gaia-trace -kind workload -family alibaba -jobs 1000 -days 7 -o jobs.csv
//
//	# Statistics of an existing trace:
//	gaia-trace -stats-carbon sa.csv
//	gaia-trace -stats-workload jobs.csv
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "gaia-trace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gaia-trace", flag.ContinueOnError)
	var (
		kind     = fs.String("kind", "carbon", "what to generate: carbon|workload")
		region   = fs.String("region", "CA-US", "carbon region (SE|ON-CA|SA-AU|CA-US|NL|KY-US)")
		hours    = fs.Int("hours", 24*365, "carbon trace length in hours")
		family   = fs.String("family", "alibaba", "workload family: alibaba|azure|mustang|poisson")
		jobs     = fs.Int("jobs", 1000, "workload job count")
		days     = fs.Int("days", 7, "workload span in days")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("o", "", "output CSV path (default stdout)")
		statsCar = fs.String("stats-carbon", "", "print statistics of a carbon CSV instead of generating")
		statsWl  = fs.String("stats-workload", "", "print statistics of a workload CSV instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *statsCar != "":
		return printCarbonStats(*statsCar)
	case *statsWl != "":
		return printWorkloadStats(*statsWl)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch strings.ToLower(*kind) {
	case "carbon":
		spec, err := carbon.RegionByCode(*region)
		if err != nil {
			return err
		}
		return spec.Generate(*hours, *seed).WriteCSV(w)
	case "workload":
		span := simtime.Duration(*days) * simtime.Day
		rng := rand.New(rand.NewSource(*seed))
		var tr *workload.Trace
		if name := strings.ToLower(*family); name == "poisson" {
			tr = workload.SectionThreeWorkload().Generate(rng, span)
		} else if fam, ok := workload.FamilyByName(name); ok {
			tr = fam.GenerateByCount(rng, *jobs, span)
		} else {
			return fmt.Errorf("unknown family %q", *family)
		}
		tr.AssignQueues(workload.DefaultShortMax)
		return tr.WriteCSV(w)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}

func printCarbonStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := carbon.ReadCSV(path, f)
	if err != nil {
		return err
	}
	s := tr.Summary()
	fmt.Printf("hours: %d  mean: %.1f  std: %.1f  CV: %.3f  min: %.1f  max: %.1f g/kWh\n",
		tr.Len(), s.Mean, s.Std, s.CV, s.Min, s.Max)
	return nil
}

func printWorkloadStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.ReadCSV(path, f)
	if err != nil {
		return err
	}
	span := tr.Span() + simtime.Day
	lc := tr.LengthCDF()
	fmt.Printf("jobs: %d  span: %.1f days  total: %.0f CPU·h  mean demand: %.1f CPUs\n",
		tr.Len(), tr.Span().Days(), tr.TotalCPUHours(), tr.MeanDemand(span))
	fmt.Printf("mean length: %v  ≤1h: %.0f%%  ≤12h: %.0f%%  demand CV: %.2f\n",
		tr.MeanLength(), 100*lc.At(60), 100*lc.At(12*60), tr.DemandCV(span))
	return nil
}
