package experiments

// Shape-regression tests: the paper's qualitative claims, asserted on
// quick-scale runs. These guard the reproduction itself — if a refactor
// flips an ordering or erases a trade-off, these fail even though every
// unit test still passes.

import (
	"math"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func mustRun(t *testing.T, cfg core.Config) *metrics.Result {
	t.Helper()
	res, err := core.Run(cfg, prototypeWeek())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func weekCfg(t *testing.T, p policy.Policy) core.Config {
	t.Helper()
	tr, err := prototypeCarbon()
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{Policy: p, Carbon: tr, Horizon: 10 * simtime.Day, Seed: seedEviction}
}

// Figure 8's ordering: WaitAwhile ≤ Ecovisor ≤ Lowest-Window ≤
// Lowest-Slot < NoWait on carbon; Carbon-Time waits less than
// Lowest-Window and WaitAwhile.
func TestShapeFig08PolicyOrdering(t *testing.T) {
	carbonOf := func(p policy.Policy) float64 {
		return mustRun(t, weekCfg(t, p)).TotalCarbon()
	}
	noWait := carbonOf(policy.NoWait{})
	lowestSlot := carbonOf(policy.LowestSlot{})
	lowestWindow := carbonOf(policy.LowestWindow{})
	ecovisor := carbonOf(policy.Ecovisor{})
	waitAwhile := carbonOf(policy.WaitAwhile{})
	if !(waitAwhile < ecovisor && ecovisor < lowestWindow && lowestWindow < lowestSlot && lowestSlot < noWait) {
		t.Errorf("carbon ordering violated: WA=%v Eco=%v LW=%v LS=%v NW=%v",
			waitAwhile, ecovisor, lowestWindow, lowestSlot, noWait)
	}
	ctWait := mustRun(t, weekCfg(t, policy.CarbonTime{})).MeanWaiting()
	lwWait := mustRun(t, weekCfg(t, policy.LowestWindow{})).MeanWaiting()
	waWait := mustRun(t, weekCfg(t, policy.WaitAwhile{})).MeanWaiting()
	if ctWait >= lwWait || ctWait >= waWait {
		t.Errorf("Carbon-Time should wait least among carbon policies: CT=%v LW=%v WA=%v",
			ctWait, lwWait, waWait)
	}
}

// Figure 11's three curves: as reserved capacity grows, cost falls to a
// valley then rises, carbon increases monotonically (within tolerance),
// and waiting decreases monotonically.
func TestShapeFig11ReservedSweep(t *testing.T) {
	demand := prototypeWeek().MeanDemand(simtime.Week)
	var costs, carbons, waits []float64
	var rs []int
	for frac := 0.0; frac <= 1.51; frac += 0.25 {
		cfg := weekCfg(t, policy.CarbonTime{})
		cfg.Reserved = int(math.Round(frac * demand))
		cfg.WorkConserving = true
		res := mustRun(t, cfg)
		rs = append(rs, cfg.Reserved)
		costs = append(costs, res.TotalCost())
		carbons = append(carbons, res.TotalCarbon())
		waits = append(waits, res.MeanWaiting().Hours())
	}
	// Valley: minimum cost strictly inside the sweep.
	minIdx := 0
	for i, c := range costs {
		if c < costs[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(costs)-1 {
		t.Errorf("cost valley at sweep edge (idx %d of %d): %v", minIdx, len(costs), costs)
	}
	// The valley sits between half the mean demand and 1.25x of it.
	if r := float64(rs[minIdx]); r < 0.5*demand || r > 1.25*demand {
		t.Errorf("valley at R=%v, demand %v", r, demand)
	}
	for i := 1; i < len(carbons); i++ {
		if carbons[i] < carbons[i-1]*0.99 {
			t.Errorf("carbon should rise with R: %v", carbons)
			break
		}
	}
	for i := 1; i < len(waits); i++ {
		if waits[i] > waits[i-1]+0.05 {
			t.Errorf("waiting should fall with R: %v", waits)
			break
		}
	}
}

// Figure 12/18's spot arithmetic: with zero evictions, Spot-First keeps
// carbon identical and strictly cuts cost; with heavy evictions, longer
// spot exposure raises carbon.
func TestShapeSpotTradeoffs(t *testing.T) {
	plain := mustRun(t, weekCfg(t, policy.CarbonTime{}))
	spotCfg := weekCfg(t, policy.CarbonTime{})
	spotCfg.SpotMaxLen = 2 * simtime.Hour
	spot := mustRun(t, spotCfg)
	if math.Abs(spot.TotalCarbon()-plain.TotalCarbon()) > 1e-6 {
		t.Errorf("zero-eviction spot must not change carbon: %v vs %v",
			spot.TotalCarbon(), plain.TotalCarbon())
	}
	if spot.TotalCost() >= plain.TotalCost() {
		t.Errorf("spot should cut cost: %v vs %v", spot.TotalCost(), plain.TotalCost())
	}
	// Evictions: longer Jmax ⇒ more carbon at a 15% hourly rate.
	carbonAt := func(jmax simtime.Duration) float64 {
		cfg := weekCfg(t, policy.CarbonTime{})
		cfg.SpotMaxLen = jmax
		cfg.EvictionRate = 0.15
		return mustRun(t, cfg).TotalCarbon()
	}
	if carbonAt(24*simtime.Hour) <= carbonAt(2*simtime.Hour) {
		t.Error("longer spot exposure should raise carbon under evictions")
	}
}

// Figure 14's diminishing returns: quadrupling the long-queue wait from
// 24h to 96h must raise savings by less than the first 24h did.
func TestShapeFig14DiminishingReturns(t *testing.T) {
	carbonAt := func(wLong simtime.Duration) float64 {
		cfg := weekCfg(t, policy.LowestWindow{})
		cfg.Queues = workload.PaperQueues(workload.DefaultWaitShort, wLong)
		return mustRun(t, cfg).TotalCarbon()
	}
	base := carbonAt(0) // no waiting in the long queue
	at24 := carbonAt(24 * simtime.Hour)
	at96 := carbonAt(96 * simtime.Hour)
	firstGain := base - at24
	extraGain := at24 - at96
	if firstGain <= 0 {
		t.Fatalf("waiting 24h should save carbon: %v -> %v", base, at24)
	}
	if extraGain > firstGain {
		t.Errorf("returns should diminish: first 24h saved %v, next 72h saved %v", firstGain, extraGain)
	}
}

// The headline claim: RES-First-Carbon-Time earns more carbon saving per
// percentage point of cost increase than plain Carbon-Time (both measured
// against the cost-optimal AllWait-Threshold and carbon baseline NoWait).
func TestShapeHeadlineSavingsPerCostPoint(t *testing.T) {
	demand := prototypeWeek().MeanDemand(simtime.Week)
	r := int(math.Round(demand / 2))
	mk := func(p policy.Policy, wc bool) *metrics.Result {
		cfg := weekCfg(t, p)
		cfg.Reserved = r
		cfg.WorkConserving = wc
		return mustRun(t, cfg)
	}
	noWait := mk(policy.NoWait{}, false)
	allWait := mk(policy.AllWait{}, true)
	carbonTime := mk(policy.CarbonTime{}, false)
	resFirst := mk(policy.CarbonTime{}, true)

	ratio := func(res *metrics.Result) float64 {
		saving := 1 - res.TotalCarbon()/noWait.TotalCarbon()
		costInc := res.TotalCost()/allWait.TotalCost() - 1
		if costInc <= 0 {
			return math.Inf(1)
		}
		return saving / costInc
	}
	ct, rf := ratio(carbonTime), ratio(resFirst)
	if rf < 1.5*ct {
		t.Errorf("RES-First savings/cost-point = %v, want ≥1.5x Carbon-Time's %v", rf, ct)
	}
}
