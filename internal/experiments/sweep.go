package experiments

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/workload"
)

// Every figure of the evaluation is a sweep of independent simulation
// cells — (policy, region, workload, reserved-size) combinations that
// share immutable inputs and never observe each other. Sweeps therefore
// fan out through par.Map, whose index-ordered results make the rendered
// tables bit-identical to a sequential run at any worker count.
//
// Cells are additionally routed through a content-addressed cache
// (internal/runcache): the baseline runs that recur across figures —
// NoWait on the default fixture appears in nearly every sweep — simulate
// once per process and are shared, bit-identically, by every figure that
// needs them. SetCache(nil) restores raw core.Run for tests that must
// exercise the simulator itself.

// sweepWorkers bounds how many simulation cells run concurrently inside
// one experiment; 0 selects GOMAXPROCS.
var sweepWorkers atomic.Int32

// SetParallelism bounds the number of concurrent simulation cells inside
// each experiment: 1 forces sequential execution, 0 restores the default
// of one worker per core. Results are identical at any setting; the knob
// exists for benchmarking and determinism tests.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	sweepWorkers.Store(int32(n))
}

// Parallelism returns the current sweep worker bound (0 = GOMAXPROCS).
func Parallelism() int { return int(sweepWorkers.Load()) }

// activeCache is the simulation cache runCells routes through; it may
// hold nil (caching disabled).
var activeCache atomic.Pointer[runcache.Cache]

func init() { activeCache.Store(runcache.New()) }

// SetCache replaces the simulation cache every figure's cells run
// through. The default is a process-lifetime in-memory cache; pass a
// cache with a disk tier (runcache.SetDir) for warm re-runs across
// processes, or nil to disable caching entirely — determinism tests and
// simulator benchmarks need every cell to really simulate.
func SetCache(c *runcache.Cache) { activeCache.Store(c) }

// ActiveCache returns the cache cells currently route through (nil when
// caching is disabled).
func ActiveCache() *runcache.Cache { return activeCache.Load() }

// CellStats counts how one figure's simulation cells were served.
type CellStats struct {
	// Computed cells actually simulated (priming the cache); Bypassed
	// cells simulated outside it (non-cacheable configs).
	Computed, Bypassed int
	// Hits were served from a completed in-memory entry, Dedups piggy-
	// backed on a concurrent in-flight computation, DiskHits decoded a
	// persisted entry.
	Hits, Dedups, DiskHits int
	// PlanHits and PlanDiskHits are cells whose decide phase was served
	// by the decision-plan tier (from memory and disk respectively) and
	// which therefore only replayed accounting — partial computations,
	// counted in Total but not in Avoided.
	PlanHits, PlanDiskHits int
}

// Total returns how many cells the figure requested.
func (s CellStats) Total() int {
	return s.Computed + s.Bypassed + s.Hits + s.Dedups + s.DiskHits +
		s.PlanHits + s.PlanDiskHits
}

// Avoided returns how many simulations the cache saved this figure.
func (s CellStats) Avoided() int { return s.Hits + s.Dedups + s.DiskHits }

// DecisionsAvoided returns how many cells skipped their decide phase by
// replaying a shared decision plan (still paying for accounting replay).
func (s CellStats) DecisionsAvoided() int { return s.PlanHits + s.PlanDiskHits }

func (s *CellStats) add(o runcache.Outcome) {
	switch o {
	case runcache.Computed:
		s.Computed++
	case runcache.Hit:
		s.Hits++
	case runcache.Dedup:
		s.Dedups++
	case runcache.DiskHit:
		s.DiskHits++
	case runcache.Bypass:
		s.Bypassed++
	case runcache.PlanHit:
		s.PlanHits++
	case runcache.PlanDiskHit:
		s.PlanDiskHits++
	}
}

// merge folds other into s.
func (s *CellStats) merge(o CellStats) {
	s.Computed += o.Computed
	s.Bypassed += o.Bypassed
	s.Hits += o.Hits
	s.Dedups += o.Dedups
	s.DiskHits += o.DiskHits
	s.PlanHits += o.PlanHits
	s.PlanDiskHits += o.PlanDiskHits
}

// cellStats attributes cache outcomes to the figure that requested the
// cell, keyed by experiment ID.
var (
	cellStatsMu sync.Mutex
	cellStats   = map[string]*CellStats{}
)

func recordOutcome(id string, o runcache.Outcome) {
	cellStatsMu.Lock()
	s := cellStats[id]
	if s == nil {
		s = &CellStats{}
		cellStats[id] = s
	}
	s.add(o)
	cellStatsMu.Unlock()
}

// CacheStats returns a snapshot of per-figure cell accounting since the
// last reset, with figure IDs sorted, plus the totals across figures.
func CacheStats() (ids []string, byFigure map[string]CellStats, total CellStats) {
	cellStatsMu.Lock()
	defer cellStatsMu.Unlock()
	byFigure = make(map[string]CellStats, len(cellStats))
	for id, s := range cellStats {
		ids = append(ids, id)
		byFigure[id] = *s
		total.merge(*s)
	}
	sort.Strings(ids)
	return ids, byFigure, total
}

// ResetCacheStats clears the per-figure accounting (not the cache).
func ResetCacheStats() {
	cellStatsMu.Lock()
	cellStats = map[string]*CellStats{}
	cellStatsMu.Unlock()
}

// cell is one independent simulation of a sweep: a cluster configuration
// applied to a workload trace.
type cell struct {
	cfg  core.Config
	jobs *workload.Trace
}

// cellOverride, when set, rewrites every cell before it runs. It is the
// test hook that re-renders whole figures under another mechanism (a
// pinned Config.Mechanism, per-job retention, a degenerate elastic wrap):
// runCells is the only place a figure simulates, so the hook reaches every
// simulation of every figure.
var cellOverride func(*cell)

// runCells executes every cell of the figure with the given experiment ID
// on the sweep worker pool and returns the results in input order —
// exactly what running the cells sequentially through core.Run would
// produce. Cells route through the active simulation cache (when one is
// set), which serves repeated cells from memory or disk bit-identically;
// outcomes are recorded against id for the cache-stats report.
func runCells(id string, cells []cell) ([]*metrics.Result, error) {
	cache := ActiveCache()
	override := cellOverride
	return par.Map(Parallelism(), cells, func(_ int, c cell) (*metrics.Result, error) {
		if override != nil {
			override(&c)
		}
		if cache == nil {
			return core.Run(c.cfg, c.jobs)
		}
		res, outcome, err := cache.Run(c.cfg, c.jobs)
		recordOutcome(id, outcome)
		return res, err
	})
}
