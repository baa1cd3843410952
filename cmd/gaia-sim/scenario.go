package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/carbonsched/gaia/internal/accountdb"
	"github.com/carbonsched/gaia/internal/cell"
	"github.com/carbonsched/gaia/internal/metrics"
)

// Scenario is a JSON-described batch of simulator runs over one shared
// workload and carbon trace — the artifact-appendix style "experiment
// customization" file. All runs are compared against the first. The top
// level is a cell.Spec: the recipe every run shares, and the knobs every
// run starts from; each run names the knobs it changes. A field left out
// takes cell.Default's value, and a field that is given means what it says.
//
//	{
//	  "region": "SA-AU",
//	  "family": "alibaba",
//	  "jobs": 1000,
//	  "days": 7,
//	  "seed": 1,
//	  "db": "runs.csv",
//	  "runs": [
//	    {"name": "baseline", "policy": "nowait"},
//	    {"name": "gaia", "policy": "carbon-time",
//	     "reserved": 18, "work_conserving": true},
//	    {"policy": "carbon-time", "spot_max_hours": 2, "eviction": 0.10}
//	  ]
//	}
type Scenario struct {
	cell.Spec
	CarbonFile string            `json:"carbon_file"`
	Workload   string            `json:"workload_file"`
	DB         string            `json:"db"` // optional accounting CSV to append to
	Runs       []json.RawMessage `json:"runs"`
}

// ScenarioRun is one configuration inside a scenario, decoded over the
// scenario's spec: it may change knobs, not the shared recipe.
type ScenarioRun struct {
	Name string `json:"name"`
	*cell.Spec
}

// runScenario executes every run and prints a comparison table.
func runScenario(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc := Scenario{Spec: cell.Default()}
	if err := cell.Decode(raw, &sc); err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	if len(sc.Runs) == 0 {
		return fmt.Errorf("scenario %s: %w", path, &cell.FieldError{Field: "runs", Msg: "is empty"})
	}
	if sc.Workload != "" {
		sc.Jobs = cell.Default().Jobs // jobs sizes only a generated workload
	}
	if err := sc.Normalize(); err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	carbonTr, err := loadCarbon(sc.CarbonFile, "gaia", sc.Spec)
	if err != nil {
		return err
	}
	jobsTr, err := loadJobs(sc.Workload, sc.Spec)
	if err != nil {
		return err
	}

	db := &accountdb.DB{}
	var base *metrics.Result
	fmt.Printf("%-28s %10s %9s %10s %9s\n", "run", "carbon_kg", "vs_base", "cost$", "wait")
	for i, raw := range sc.Runs {
		spec := sc.Spec
		r := ScenarioRun{Spec: &spec}
		err := cell.Decode(raw, &r)
		if err == nil && (spec.Region != sc.Region || spec.Family != sc.Family || spec.Jobs != sc.Jobs || spec.Days != sc.Days || spec.Seed != sc.Seed) {
			err = errors.New("region, family, jobs, days and seed are shared by every run; set them at the top level")
		}
		if err == nil {
			err = spec.Normalize()
		}
		var res *metrics.Result
		if err == nil {
			cfg := spec.Config(carbonTr)
			cfg.Label = r.Name
			res, err = simulate(cfg, jobsTr)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: run %d (%s): %w", path, i, cmp.Or(r.Name, r.Policy), err)
		}
		if i == 0 {
			base = res
		}
		rel := res.CompareTo(base)
		fmt.Printf("%-28s %10.3f %9.3f %10.2f %9v\n",
			res.Label, res.TotalCarbonKg(), rel.Carbon, res.TotalCost(), res.MeanWaiting())
		db.AppendResult(res)
	}
	if sc.DB != "" {
		if err := writeFile(sc.DB, db.Save); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", db.Len(), sc.DB)
	}
	return nil
}
