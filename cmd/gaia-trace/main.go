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
	"io"
	"os"
	"strings"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cell"
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
	// A workload is a cell's, from the same recipe flags as gaia-sim's.
	spec := cell.Default()
	fs.StringVar(&spec.Family, "family", spec.Family, "workload family: alibaba|azure|mustang|poisson")
	fs.IntVar(&spec.Jobs.N, "jobs", spec.Jobs.N, "workload job count (not with -family poisson, whose count follows -days)")
	fs.IntVar(&spec.Days, "days", spec.Days, "workload span in days")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	var (
		kind     = fs.String("kind", "carbon", "what to generate: carbon|workload")
		region   = fs.String("region", "CA-US", "carbon region (SE|ON-CA|SA-AU|CA-US|NL|KY-US)")
		hours    = fs.Int("hours", 24*365, "carbon trace length in hours")
		out      = fs.String("o", "", "output CSV path (default stdout)")
		statsCar = fs.String("stats-carbon", "", "print statistics of a carbon CSV instead of generating")
		statsWl  = fs.String("stats-workload", "", "print statistics of a workload CSV instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { spec.Jobs.Given = spec.Jobs.Given || f.Name == "jobs" })

	switch {
	case *statsCar != "":
		return printCarbonStats(*statsCar)
	case *statsWl != "":
		return printWorkloadStats(*statsWl)
	}

	// Generate before creating the output, so a rejected run writes nothing.
	var tr interface{ WriteCSV(io.Writer) error }
	switch strings.ToLower(*kind) {
	case "carbon":
		rs, err := carbon.RegionByCode(*region)
		if err != nil {
			return err
		}
		tr = rs.Generate(*hours, spec.Seed)
	case "workload":
		if err := spec.Normalize(); err != nil {
			return cell.FlagError(err, nil)
		}
		jobs := spec.Workload()
		jobs.AssignQueues(workload.DefaultShortMax)
		tr = jobs
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if *out == "" {
		return tr.WriteCSV(os.Stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
