// Command gaia-sim runs one GAIA cluster simulation — the equivalent of
// the paper artifact's src/run.py. It loads or generates a carbon trace
// and a workload, applies one scheduling configuration, and reports
// carbon, cost and waiting time (optionally writing the artifact-style
// aggregate and per-job details CSV files).
//
// Examples:
//
//	# Carbon- and cost-agnostic baseline on the default week-long trace:
//	gaia-sim -policy nowait
//
//	# Lowest carbon window with 6h/24h waits, in South Australia:
//	gaia-sim -policy lowest-window -region SA-AU -w 6x24
//
//	# The paper's RES-First-Carbon-Time with 18 reserved CPUs:
//	gaia-sim -policy carbon-time -reserved 18 -work-conserving
//
//	# Spot for jobs up to 2h with a 5%/h eviction rate:
//	gaia-sim -policy carbon-time -spot-max 2 -eviction 0.05
//
//	# Replay real traces exported to CSV:
//	gaia-sim -policy carbon-time -carbon ci.csv -workload jobs.csv
//
//	# Malleable jobs with precedence edges, resized hourly by the
//	# greedy-marginal allocator:
//	gaia-sim -policy critical-path -elastic jobs.csv -dag edges.csv -allocator greedy-marginal
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/carbonsched/gaia/internal/accountdb"
	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "gaia-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gaia-sim", flag.ContinueOnError)
	var (
		policyName = fs.String("policy", "carbon-time",
			"scheduling policy: nowait|allwait|lowest-slot|lowest-window|carbon-time|wait-awhile|wait-awhile-est|ecovisor|critical-path")
		region     = fs.String("region", "CA-US", "built-in carbon region (SE|ON-CA|SA-AU|CA-US|NL|KY-US)")
		carbonFile = fs.String("carbon", "", "carbon trace CSV (overrides -region)")
		carbonFmt  = fs.String("carbon-format", "gaia", "carbon CSV schema: gaia (hour,ci) or emaps (datetime,...,ci)")
		wlFile     = fs.String("workload", "", "workload trace CSV (overrides -family)")
		family     = fs.String("family", "alibaba", "synthetic workload family: alibaba|azure|mustang|poisson")
		jobs       = fs.Int("jobs", 1000, "number of synthetic jobs")
		days       = fs.Int("days", 7, "workload span in days")
		reserved   = fs.Int("reserved", 0, "reserved CPU units")
		workCons   = fs.Bool("work-conserving", false, "enable RES-First work conservation")
		spotMax    = fs.Float64("spot-max", 0, "max job hours routed to spot (0 = no spot)")
		eviction   = fs.Float64("eviction", 0, "hourly spot eviction probability")
		waits      = fs.String("w", "6x24", "max waiting hours of the short (jobs up to 2h) and long queues as SHORTxLONG, e.g. 6x24; 0 means no waiting, e.g. 0x24")
		seed       = fs.Int64("seed", 1, "random seed (workload generation and evictions)")
		out        = fs.String("out", "", "output file prefix: writes <out>-summary.csv and <out>-details.csv")
		dbPath     = fs.String("db", "", "append job records to this accounting CSV (query with gaiactl)")
		runtime    = fs.String("runtime", "sim", "execution model: sim (GAIA-Simulator) or prototype (node-level batch runtime)")
		scenario   = fs.String("scenario", "", "JSON scenario file describing a batch of runs to compare (ignores other flags)")
		checkpoint = fs.Float64("checkpoint", 0, "spot checkpoint interval in hours (0 = progress lost on eviction)")
		elastic    = fs.String("elastic", "", "malleable workload CSV with per-job replica bounds and scale curves (overrides -workload/-family)")
		dag        = fs.String("dag", "", "precedence edges CSV (src,dst job ids) attached to the -elastic workload")
		allocator  = fs.String("allocator", "", "elastic replica allocator: "+strings.Join(policy.AllocatorNames(), "|")+" (default static-min)")
		elasticCap = fs.Int("elastic-capacity", 0, "cap on extra-replica CPUs per hour beyond the idle reserved pool (0 = idle pool only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scenario != "" {
		return runScenario(*scenario)
	}
	// A span or a generated count below 1 would run an empty workload.
	if *days < 1 {
		return fmt.Errorf("-days %d must be at least 1", *days)
	}
	if *jobs < 1 && *wlFile == "" && *elastic == "" {
		return fmt.Errorf("-jobs %d must be at least 1", *jobs)
	}

	pol, err := policyByName(*policyName)
	if err != nil {
		return err
	}
	queues, err := parseWaits(*waits)
	if err != nil {
		return err
	}
	carbonTr, err := loadCarbon(*carbonFile, *carbonFmt, *region, *days)
	if err != nil {
		return err
	}
	var elasticTr *workload.ElasticTrace
	var jobsTr *workload.Trace
	if *elastic != "" {
		elasticTr, err = loadElastic(*elastic, *dag)
		if err != nil {
			return err
		}
		jobsTr = elasticTr.Jobs
	} else {
		if *dag != "" {
			return fmt.Errorf("-dag requires -elastic (edges refer to the elastic workload's job ids)")
		}
		jobsTr, err = loadWorkload(*wlFile, *family, *jobs, *days, *seed)
		if err != nil {
			return err
		}
	}
	var alloc policy.ElasticAllocator
	if *allocator != "" {
		if elasticTr == nil {
			return fmt.Errorf("-allocator requires -elastic")
		}
		alloc, err = policy.AllocatorByName(*allocator)
		if err != nil {
			return err
		}
	}

	horizon := simtime.Duration(*days+3) * simtime.Day
	if *runtime == "prototype" {
		if elasticTr != nil {
			return fmt.Errorf("the prototype runtime does not support -elastic workloads")
		}
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"work-conserving", *workCons},
			{"checkpoint", *checkpoint != 0},
			{"out", *out != ""},
			{"db", *dbPath != ""},
			{"elastic-capacity", *elasticCap != 0},
		} {
			if f.set {
				return fmt.Errorf("the prototype runtime does not support -%s", f.name)
			}
		}
		return runPrototype(batch.Config{
			Policy:        pol,
			Carbon:        carbonTr,
			ReservedNodes: *reserved,
			SpotMaxLen:    simtime.HoursDur(*spotMax),
			EvictionRate:  *eviction,
			Queues:        queues,
			Horizon:       horizon,
			Seed:          *seed,
		}, jobsTr)
	}
	if *runtime != "sim" {
		return fmt.Errorf("unknown -runtime %q (want sim or prototype)", *runtime)
	}

	cfg := core.Config{
		Policy:             pol,
		Carbon:             carbonTr,
		Reserved:           *reserved,
		WorkConserving:     *workCons,
		SpotMaxLen:         simtime.HoursDur(*spotMax),
		EvictionRate:       *eviction,
		CheckpointInterval: simtime.HoursDur(*checkpoint),
		Queues:             queues,
		Horizon:            horizon,
		Seed:               *seed,
		// Per-job records are only needed when they are exported; plain
		// summary runs stream into the aggregate accumulator.
		RetainJobs:      *out != "" || *dbPath != "",
		Elastic:         elasticTr,
		Allocator:       alloc,
		ElasticCapacity: *elasticCap,
	}
	res, err := core.Run(cfg, jobsTr)
	if err != nil {
		return err
	}

	fmt.Printf("config:   %s\n", res.Label)
	fmt.Printf("region:   %s   workload: %s (%d jobs)\n", res.Region, res.Workload, res.JobCount())
	fmt.Printf("carbon:   %.3f kg (baseline %.3f kg, savings %.1f%%)\n",
		res.TotalCarbonKg(), res.BaselineCarbon()/1000, 100*res.CarbonSavingsFraction())
	fmt.Printf("cost:     $%.2f (reserved upfront $%.2f + usage $%.2f)\n",
		res.TotalCost(), res.ReservedUpfront(), res.UsageCost())
	fmt.Printf("waiting:  %v mean   completion: %v mean\n", res.MeanWaiting(), res.MeanCompletion())
	if res.Reserved > 0 {
		fmt.Printf("reserved: %d units, %.1f%% utilized\n", res.Reserved, 100*res.ReservedUtilization())
	}
	if res.TotalEvictions() > 0 {
		fmt.Printf("spot:     %d evictions\n", res.TotalEvictions())
	}

	if *out != "" {
		if err := writeFile(*out+"-summary.csv", res.WriteSummary); err != nil {
			return err
		}
		if err := writeFile(*out+"-details.csv", res.WriteDetailsCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s-summary.csv and %s-details.csv\n", *out, *out)
	}
	if *dbPath != "" {
		if err := appendToDB(*dbPath, res); err != nil {
			return err
		}
		fmt.Printf("appended %d records to %s\n", res.JobCount(), *dbPath)
	}
	return nil
}

// appendToDB loads an existing accounting CSV (if any), appends this
// run's records, and rewrites the file.
func appendToDB(path string, res *metrics.Result) error {
	db := &accountdb.DB{}
	if f, err := os.Open(path); err == nil {
		loadErr := db.Load(f)
		f.Close()
		if loadErr != nil {
			return fmt.Errorf("existing db %s: %w", path, loadErr)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	db.AppendResult(res)
	return writeFile(path, db.Save)
}

// runPrototype executes on the node-level batch runtime and prints its
// fleet-style report.
func runPrototype(cfg batch.Config, jobs *workload.Trace) error {
	res, err := batch.Run(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Printf("runtime:  prototype (node-level, whole-lifetime billing)\n")
	fmt.Printf("config:   %s\n", res.Label)
	fmt.Printf("jobs:     %d   nodes launched: %d\n", len(res.Jobs), res.NodesLaunched)
	fmt.Printf("carbon:   %.3f kg\n", res.CarbonKg())
	fmt.Printf("cost:     $%.2f\n", res.Cost)
	fmt.Printf("waiting:  %v mean\n", res.MeanWaiting())
	if res.TotalEvictions() > 0 {
		fmt.Printf("spot:     %d interruptions\n", res.TotalEvictions())
	}
	return nil
}

// policyByName delegates to the shared tag registry in internal/policy,
// so the CLI and the serving API accept exactly the same names.
func policyByName(name string) (policy.Policy, error) {
	return policy.ByName(name)
}

// parseWaits reads SHORTxLONG waiting hours into the paper's two queues.
func parseWaits(s string) (workload.QueueLadder, error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -w %q (want SHORTxLONG, e.g. 6x24)", s)
	}
	sh, err1 := strconv.ParseFloat(parts[0], 64)
	lo, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil || sh < 0 || lo < 0 {
		return nil, fmt.Errorf("bad -w %q (want SHORTxLONG, e.g. 6x24)", s)
	}
	return workload.PaperQueues(simtime.HoursDur(sh), simtime.HoursDur(lo)), nil
}

func loadCarbon(file, format, region string, days int) (*carbon.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch format {
		case "gaia":
			return carbon.ReadCSV(file, f)
		case "emaps":
			// ElectricityMaps exports: datetime first, intensity last.
			return carbon.ReadElectricityMapsCSV(file, f, 0, 1)
		default:
			return nil, fmt.Errorf("unknown -carbon-format %q", format)
		}
	}
	spec, err := carbon.RegionByCode(region)
	if err != nil {
		return nil, err
	}
	return spec.Generate((days+3)*24, 2022), nil
}

func loadWorkload(file, family string, jobs, days int, seed int64) (*workload.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadCSV(file, f)
	}
	span := simtime.Duration(days) * simtime.Day
	rng := rand.New(rand.NewSource(seed))
	name := strings.ToLower(family)
	if name == "poisson" {
		return workload.SectionThreeWorkload().Generate(rng, span), nil
	}
	fam, ok := workload.FamilyByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload family %q", family)
	}
	return fam.GenerateByCount(rng, jobs, span), nil
}

// loadElastic reads a malleable workload CSV plus an optional precedence
// edges CSV into the ElasticTrace passed to core.Run as both the workload
// and the elastic metadata.
func loadElastic(jobsFile, edgesFile string) (*workload.ElasticTrace, error) {
	jf, err := os.Open(jobsFile)
	if err != nil {
		return nil, err
	}
	defer jf.Close()
	var edges io.Reader
	if edgesFile != "" {
		ef, err := os.Open(edgesFile)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		edges = ef
	}
	return workload.ReadElasticCSV(jobsFile, jf, edges)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
