package experiments

import (
	"math/rand"
	"sync"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Deterministic seeds for every stochastic fixture; changing one re-rolls
// only that fixture.
const (
	seedCarbon   = 2022 // carbon traces (per-region offsets added)
	seedWorkload = 4242 // workload traces (per-family offsets added)
	seedEviction = 7    // spot eviction processes
)

// horizon returns the simulation horizon for a scale: the paper's year or
// a 60-day quick run.
func horizon(s Scale) simtime.Duration {
	if s == Full {
		return simtime.Year
	}
	return 60 * simtime.Day
}

var (
	regionOnce   sync.Once
	regionTraces map[string]*carbon.Trace
)

// regionTrace returns the cached year-long trace for a region code.
func regionTrace(code string) *carbon.Trace {
	regionOnce.Do(func() {
		regionTraces = make(map[string]*carbon.Trace)
		for i, spec := range carbon.Regions() {
			regionTraces[spec.Code] = spec.GenerateYear(seedCarbon + int64(i))
		}
	})
	tr, ok := regionTraces[code]
	if !ok {
		panic("experiments: unknown region " + code)
	}
	return tr
}

// evaluationRegions lists the five regions of the large-scale evaluation
// (Figures 15-16; Sweden appears only in Figure 6's classification).
func evaluationRegions() []string {
	return []string{"SA-AU", "ON-CA", "CA-US", "NL", "KY-US"}
}

// The paper's per-trace reserved capacities (Figure 17): each trace's mean
// demand. Quick runs scale demand down 4× to keep runtimes low.
func meanDemand(family string, s Scale) float64 {
	demands := map[string]float64{"mustang": 468, "alibaba": 100, "azure": 142}
	d := demands[family]
	if s == Quick {
		d /= 4
	}
	return d
}

type workloadKey struct {
	family string
	scale  Scale
}

var (
	workloadMu     sync.Mutex
	workloadTraces = map[workloadKey]*workload.Trace{}
)

// familySeedOffset gives each workload family its own generation seed.
var familySeedOffset = map[string]int64{"mustang": 1, "alibaba": 2, "azure": 3}

// yearTrace returns the cached demand-calibrated workload for a family at
// the given scale ("mustang", "alibaba", "azure").
func yearTrace(family string, s Scale) *workload.Trace {
	workloadMu.Lock()
	defer workloadMu.Unlock()
	key := workloadKey{family, s}
	if tr, ok := workloadTraces[key]; ok {
		return tr
	}
	fam, ok := workload.FamilyByName(family)
	if !ok {
		panic("experiments: unknown workload family " + family)
	}
	rng := rand.New(rand.NewSource(seedWorkload + familySeedOffset[family]))
	tr := fam.GenerateByDemand(rng, meanDemand(family, s), horizon(s))
	workloadTraces[key] = tr
	return tr
}

var (
	weekOnce  sync.Once
	weekTrace *workload.Trace
)

// prototypeWeek returns the cached week-long 1k-job <=4-CPU Alibaba trace
// used by the prototype experiments (Figures 8-12).
func prototypeWeek() *workload.Trace {
	weekOnce.Do(func() {
		rng := rand.New(rand.NewSource(seedWorkload + 10))
		weekTrace = workload.AlibabaPAIWeek().GenerateByCount(rng, 1000, simtime.Week)
	})
	return weekTrace
}
