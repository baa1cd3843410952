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
	"os"
	"strings"

	"github.com/carbonsched/gaia/internal/accountdb"
	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cell"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "gaia-sim: %v\n", err)
		os.Exit(1)
	}
}

// flagNames names the flags not spelled like the cell.Spec field they set.
var flagNames = map[string]string{"work_conserving": "work-conserving", "spot_max_hours": "spot-max",
	"checkpoint_hours": "checkpoint", "waits": "w"}

// simulate runs one configuration; tests wrap it to see each run.
var simulate = core.Run

func run(args []string) error {
	fs := flag.NewFlagSet("gaia-sim", flag.ContinueOnError)
	def := cell.Default()
	spec := def
	fs.StringVar(&spec.Policy, "policy", def.Policy,
		"scheduling policy: nowait|allwait|lowest-slot|lowest-window|carbon-time|wait-awhile|wait-awhile-est|ecovisor|critical-path")
	fs.StringVar(&spec.Region, "region", def.Region, "built-in carbon region (SE|ON-CA|SA-AU|CA-US|NL|KY-US)")
	fs.StringVar(&spec.Family, "family", def.Family, "synthetic workload family: alibaba|azure|mustang|poisson")
	fs.IntVar(&spec.Jobs.N, "jobs", def.Jobs.N, "number of synthetic jobs (not with -family poisson, whose count follows -days)")
	fs.IntVar(&spec.Days, "days", def.Days, "workload span in days")
	fs.IntVar(&spec.Reserved, "reserved", def.Reserved, "reserved CPU units")
	fs.BoolVar(&spec.WorkConserving, "work-conserving", def.WorkConserving, "enable RES-First work conservation")
	fs.Float64Var(&spec.SpotMaxHours, "spot-max", def.SpotMaxHours, "max job hours routed to spot (0 = no spot)")
	fs.Float64Var(&spec.Eviction, "eviction", def.Eviction, "hourly spot eviction probability")
	fs.Var(&spec.Waits, "w", "max waiting hours of the short (jobs up to 2h) and long queues as SHORTxLONG, e.g. 6x24; 0 means no waiting, e.g. 0x24")
	fs.Int64Var(&spec.Seed, "seed", def.Seed, "random seed (workload generation and evictions)")
	fs.Float64Var(&spec.CheckpointHours, "checkpoint", def.CheckpointHours, "spot checkpoint interval in hours (0 = progress lost on eviction)")
	var (
		carbonFile = fs.String("carbon", "", "carbon trace CSV (overrides -region)")
		carbonFmt  = fs.String("carbon-format", "gaia", "carbon CSV schema: gaia (hour,ci) or emaps (datetime,...,ci)")
		wlFile     = fs.String("workload", "", "workload trace CSV (overrides -family)")
		out        = fs.String("out", "", "output file prefix: writes <out>-summary.csv and <out>-details.csv")
		dbPath     = fs.String("db", "", "append job records to this accounting CSV (query with gaiactl)")
		runtime    = fs.String("runtime", "sim", "execution model: sim (GAIA-Simulator) or prototype (node-level batch runtime)")
		scenario   = fs.String("scenario", "", "JSON scenario file describing a batch of runs to compare (ignores other flags)")
		elastic    = fs.String("elastic", "", "malleable workload CSV with per-job replica bounds and scale curves (overrides -workload/-family)")
		dag        = fs.String("dag", "", "precedence edges CSV (src,dst job ids) attached to the -elastic workload")
		allocator  = fs.String("allocator", "", "elastic replica allocator: "+strings.Join(policy.AllocatorNames(), "|")+" (default static-min)")
		elasticCap = fs.Int("elastic-capacity", 0, "cap on extra-replica CPUs per hour beyond the idle reserved pool (0 = idle pool only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { spec.Jobs.Given = spec.Jobs.Given || f.Name == "jobs" })

	if *scenario != "" {
		return runScenario(*scenario)
	}
	if *wlFile != "" || *elastic != "" {
		spec.Jobs = def.Jobs // -jobs sizes only a generated workload
	}
	if err := spec.Normalize(); err != nil {
		return cell.FlagError(err, flagNames)
	}
	carbonTr, err := loadCarbon(*carbonFile, *carbonFmt, spec)
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
		jobsTr, err = loadJobs(*wlFile, spec)
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

	cfg := spec.Config(carbonTr)
	if *runtime == "prototype" {
		if elasticTr != nil {
			return fmt.Errorf("the prototype runtime does not support -elastic workloads")
		}
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"work-conserving", spec.WorkConserving},
			{"checkpoint", spec.CheckpointHours != 0},
			{"out", *out != ""},
			{"db", *dbPath != ""},
			{"elastic-capacity", *elasticCap != 0},
		} {
			if f.set {
				return fmt.Errorf("the prototype runtime does not support -%s", f.name)
			}
		}
		return runPrototype(batch.Config{
			Policy:        cfg.Policy,
			Carbon:        cfg.Carbon,
			ReservedNodes: cfg.Reserved,
			SpotMaxLen:    cfg.SpotMaxLen,
			EvictionRate:  cfg.EvictionRate,
			Queues:        cfg.Queues,
			Horizon:       cfg.Horizon,
			Seed:          cfg.Seed,
		}, jobsTr)
	}
	if *runtime != "sim" {
		return fmt.Errorf("unknown -runtime %q (want sim or prototype)", *runtime)
	}

	// Per-job records are only needed when they are exported; plain
	// summary runs stream into the aggregate accumulator.
	cfg.RetainJobs = *out != "" || *dbPath != ""
	cfg.Elastic, cfg.Allocator, cfg.ElasticCapacity = elasticTr, alloc, *elasticCap
	res, err := simulate(cfg, jobsTr)
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

// loadCarbon reads the carbon trace file, or generates the cell's trace.
func loadCarbon(file, format string, spec cell.Spec) (*carbon.Trace, error) {
	if file == "" {
		return spec.Carbon(), nil
	}
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

// loadJobs reads the workload trace file, or generates the cell's workload.
func loadJobs(file string, spec cell.Spec) (*workload.Trace, error) {
	if file == "" {
		return spec.Workload(), nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadCSV(file, f)
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
