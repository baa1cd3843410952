package experiments

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/geo"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "x05-checkpoint",
		Title: "Extension: spot checkpoint/restart trade-off (§4.2.4 future work)",
		Run:   runX05Checkpoint,
	})
	register(Experiment{
		ID:    "x06-spatial",
		Title: "Extension: spatial + temporal shifting across regions (§2.1 future work)",
		Run:   runX06Spatial,
	})
}

// runX05Checkpoint explores the trade-off the paper identifies but defers:
// checkpointing overhead vs eviction rate vs recomputation. Replays the
// Figure-18 setting (Azure trace, SA-AU, Spot-First-Carbon-Time,
// J^max = 12 h) with checkpoint/restart enabled at various intervals.
func runX05Checkpoint(scale Scale) (fmt.Stringer, error) {
	carbonTr := regionTrace("SA-AU")
	jobs := yearTrace("azure", scale)
	evicts := []float64{0.05, 0.10, 0.15}
	intervals := []simtime.Duration{0, 30 * simtime.Minute, simtime.Hour, 2 * simtime.Hour, 6 * simtime.Hour}
	// Cell 0 is the NoWait baseline; the rest sweep (eviction, interval).
	cells := []cell{{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(scale)}, jobs}}
	for _, evict := range evicts {
		for _, interval := range intervals {
			cells = append(cells, cell{core.Config{
				Policy:             policy.CarbonTime{},
				Carbon:             carbonTr,
				Horizon:            horizon(scale),
				SpotMaxLen:         12 * simtime.Hour,
				EvictionRate:       evict,
				Seed:               seedEviction,
				CheckpointInterval: interval,
				CheckpointOverhead: 3 * simtime.Minute,
			}, jobs})
		}
	}
	results, err := runCells("x05-checkpoint", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t := NewTable("Extension x05 — checkpointed Spot-First-Carbon-Time (Azure, SA-AU, Jmax=12h, ckpt overhead 3min)",
		"evict%", "ckpt interval", "carbon(norm)", "cost(norm)", "wasted CPU·h", "evictions")
	idx := 1
	for _, evict := range evicts {
		for _, interval := range intervals {
			res := results[idx]
			idx++
			rel := res.CompareTo(base)
			wasted := res.TotalWastedCPUHours()
			label := "none"
			if interval > 0 {
				label = interval.String()
			}
			t.AddRowf(100*evict, label, rel.Carbon, rel.Cost, wasted, res.TotalEvictions())
		}
	}
	t.Caption = "expectation: checkpointing recovers most of the eviction losses of Figure 18; very short intervals pay overhead, very long ones recompute — a shallow optimum between"
	return t, nil
}

// runX06Spatial quantifies the future work the paper's §2.1 defers:
// combining temporal shifting with region choice. Compares each
// single-region Carbon-Time deployment against the spatial scheduler
// choosing per job among all five evaluation regions.
func runX06Spatial(scale Scale) (fmt.Stringer, error) {
	jobs := yearTrace("alibaba", scale)
	t := NewTable("Extension x06 — temporal-only vs spatial+temporal (Alibaba, Carbon-Time)",
		"deployment", "carbon(kg)", "vs dirtiest", "wait(h)")
	var regions []*carbon.Trace
	var cells []cell
	for _, code := range evaluationRegions() {
		tr := regionTrace(code)
		regions = append(regions, tr)
		cells = append(cells, cell{core.Config{Policy: policy.CarbonTime{}, Carbon: tr, Horizon: horizon(scale)}, jobs})
	}
	results, err := runCells("x06-spatial", cells)
	if err != nil {
		return nil, err
	}
	worst := 0.0
	type row struct {
		name string
		kg   float64
		wait float64
	}
	var rows []row
	for i, code := range evaluationRegions() {
		res := results[i]
		rows = append(rows, row{code + " only", res.TotalCarbonKg(), res.MeanWaiting().Hours()})
		if res.TotalCarbonKg() > worst {
			worst = res.TotalCarbonKg()
		}
	}
	// Each region's share of the spatial run is one more cell.
	runRegion := func(cfg core.Config, jobs *workload.Trace) (*metrics.Result, error) {
		res, err := runCells("x06-spatial", []cell{{cfg, jobs}})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	multi, err := geo.Run(geo.Config{
		Policy:  policy.CarbonTime{},
		Regions: regions,
		Horizon: horizon(scale),
	}, jobs, runRegion)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"spatial (all 5)", multi.TotalCarbon() / 1000, multi.MeanWaiting().Hours()})
	for _, r := range rows {
		t.AddRowf(r.name, r.kg, r.kg/worst, r.wait)
	}
	shares := multi.JobShare()
	parts := ""
	for i, code := range evaluationRegions() {
		if i > 0 {
			parts += ", "
		}
		parts += fmt.Sprintf("%s %.0f%%", code, 100*shares[i])
	}
	t.Caption = "spatial placement shares: " + parts +
		" — region choice dominates temporal shifting, which is why the paper scopes to one region and why related work treats them separately"
	return t, nil
}
