package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/carbonsched/gaia/internal/accountdb"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/simtime"
)

// Scenario is a JSON-described batch of simulator runs over one shared
// workload and carbon trace — the artifact-appendix style "experiment
// customization" file. All runs are compared against the first. A field
// left out or set to 0 takes its default: region CA-US, family alibaba,
// 1000 jobs, 7 days, seed 1 and waits 6x24. A negative jobs or days is an
// error.
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
	Region     string        `json:"region"`
	CarbonFile string        `json:"carbon_file"`
	Family     string        `json:"family"`
	Workload   string        `json:"workload_file"`
	Jobs       int           `json:"jobs"`
	Days       int           `json:"days"`
	Seed       int64         `json:"seed"`
	Waits      string        `json:"waits"` // "6x24"
	DB         string        `json:"db"`    // optional accounting CSV to append to
	Runs       []ScenarioRun `json:"runs"`
}

// ScenarioRun is one configuration inside a scenario.
type ScenarioRun struct {
	Name           string  `json:"name"`
	Policy         string  `json:"policy"`
	Reserved       int     `json:"reserved"`
	WorkConserving bool    `json:"work_conserving"`
	SpotMaxHours   float64 `json:"spot_max_hours"`
	Eviction       float64 `json:"eviction"`
	CheckpointH    float64 `json:"checkpoint_hours"`
}

// runScenario executes every run and prints a comparison table.
func runScenario(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// A misspelled field is an error naming it, not a silent default.
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return fmt.Errorf("scenario %s: trailing data after the scenario object", path)
	}
	if len(sc.Runs) == 0 {
		return fmt.Errorf("scenario %s: no runs", path)
	}
	if sc.Jobs < 0 {
		return fmt.Errorf("scenario %s: \"jobs\" %d must be positive (0 means the default, 1000)", path, sc.Jobs)
	}
	if sc.Days < 0 {
		return fmt.Errorf("scenario %s: \"days\" %d must be positive (0 means the default, 7)", path, sc.Days)
	}
	// Defaults.
	if sc.Region == "" {
		sc.Region = "CA-US"
	}
	if sc.Family == "" {
		sc.Family = "alibaba"
	}
	if sc.Jobs == 0 {
		sc.Jobs = 1000
	}
	if sc.Days == 0 {
		sc.Days = 7
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Waits == "" {
		sc.Waits = "6x24"
	}
	queues, err := parseWaits(sc.Waits)
	if err != nil {
		return err
	}
	carbonTr, err := loadCarbon(sc.CarbonFile, "gaia", sc.Region, sc.Days)
	if err != nil {
		return err
	}
	jobsTr, err := loadWorkload(sc.Workload, sc.Family, sc.Jobs, sc.Days, sc.Seed)
	if err != nil {
		return err
	}

	db := &accountdb.DB{}
	var base *metrics.Result
	fmt.Printf("%-28s %10s %9s %10s %9s\n", "run", "carbon_kg", "vs_base", "cost$", "wait")
	for i, r := range sc.Runs {
		pol, err := policyByName(r.Policy)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		cfg := core.Config{
			Label:              r.Name,
			Policy:             pol,
			Carbon:             carbonTr,
			Reserved:           r.Reserved,
			WorkConserving:     r.WorkConserving,
			SpotMaxLen:         simtime.HoursDur(r.SpotMaxHours),
			EvictionRate:       r.Eviction,
			CheckpointInterval: simtime.HoursDur(r.CheckpointH),
			Queues:             queues,
			Horizon:            simtime.Duration(sc.Days+3) * simtime.Day,
			Seed:               sc.Seed,
		}
		res, err := core.Run(cfg, jobsTr)
		if err != nil {
			return fmt.Errorf("run %d (%s): %w", i, cmp.Or(r.Name, r.Policy), err)
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
