package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// scriptAlloc adapts a closure into an ElasticAllocator for hand-checked
// resize scenarios.
type scriptAlloc struct {
	grants func(views []policy.ElasticJobView, now simtime.Time) []int
}

func (scriptAlloc) Name() string { return "script" }

func (a scriptAlloc) Allocate(views []policy.ElasticJobView, now simtime.Time, _ int, _ *policy.Context) []int {
	return a.grants(views, now)
}

// grantAll returns an allocator granting every job the same replica count.
func grantAll(k int) scriptAlloc {
	return scriptAlloc{grants: func(views []policy.ElasticJobView, _ simtime.Time) []int {
		g := make([]int, len(views))
		for i := range g {
			g[i] = k
		}
		return g
	}}
}

func elasticConfig(tr *carbon.Trace, p policy.Policy, et *workload.ElasticTrace, alloc policy.ElasticAllocator) Config {
	cfg := baseConfig(tr, p)
	cfg.Elastic = et
	cfg.Allocator = alloc
	return cfg
}

// A 4-hour unit-CPU job with a linear curve scaled to 4 replicas at the
// first hour boundary: 1 replica for the first hour does 60 of 240
// unit-minutes, then 4 replicas finish the remaining 180 in 45 minutes.
// CPU-time is conserved (flat curve), carbon and cost follow the
// round-number fixture exactly.
func TestElasticLinearSpeedupHandChecked(t *testing.T) {
	tr := flatTrace(48, 100)
	et := workload.MustElasticTrace("lin", []workload.Job{
		{Arrival: 0, Length: 4 * simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		{MinReplicas: 1, MaxReplicas: 4, Curve: workload.ScaleCurve{1, 1, 1, 1}},
	}, nil)
	res, err := Run(elasticConfig(tr, policy.NoWait{}, et, grantAll(4)), et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Start != 0 || j.Finish != simtime.Time(105*simtime.Minute) {
		t.Errorf("timing: start %v finish %v, want 0/105", j.Start, j.Finish)
	}
	if want := simtime.Duration(-135); j.Waiting != want {
		t.Errorf("waiting %v, want %v (elastic speedup)", j.Waiting, want)
	}
	// 1 CPU·h serial + 3 CPU·h wide = 4 CPU·h at CI 100 → 4 g, $4 on-demand.
	if math.Abs(j.Carbon-4) > 1e-9 || math.Abs(j.UsageCost-4) > 1e-9 {
		t.Errorf("carbon %v cost %v, want 4/4", j.Carbon, j.UsageCost)
	}
	if hrs := j.CPUHours[cloud.OnDemand]; math.Abs(hrs-4) > 1e-9 { // all on-demand
		t.Errorf("on-demand CPU hours %v, want 4", hrs)
	}
}

// A sublinear curve pays extra CPU-time for the speedup: 2 replicas at
// marginal 0.5 process 1.5 unit-minutes per minute but burn 2 CPU-minutes.
func TestElasticSublinearBurnsExtraCPU(t *testing.T) {
	tr := flatTrace(48, 100)
	et := workload.MustElasticTrace("sub", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		{MinReplicas: 2, MaxReplicas: 2, Curve: workload.ScaleCurve{1, 0.5}},
	}, nil)
	res, err := Run(elasticConfig(tr, policy.NoWait{}, et, policy.StaticAlloc{}), et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// 120 unit-minutes at rate 1.5 → 80 minutes on 2 CPUs.
	if j.Finish != 80 {
		t.Errorf("finish %v, want 80", j.Finish)
	}
	if want := 2 * 80.0 / 60; math.Abs(j.CPUHours[cloud.OnDemand]-want) > 1e-9 {
		t.Errorf("CPU hours %v, want %v", j.CPUHours[cloud.OnDemand], want)
	}
}

// Suspend at the first boundary, resume at the second: a preemptible job
// (Min 0) pauses for exactly one hour and its completion slips by it.
func TestElasticSuspendResumeHandChecked(t *testing.T) {
	tr := flatTrace(48, 100)
	et := workload.MustElasticTrace("pre", []workload.Job{
		{Arrival: 0, Length: 3 * simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		{MinReplicas: 0, MaxReplicas: 1, Curve: workload.ScaleCurve{1}},
	}, nil)
	alloc := scriptAlloc{grants: func(views []policy.ElasticJobView, now simtime.Time) []int {
		if now == simtime.Time(simtime.Hour) {
			return []int{0} // suspend for the second hour
		}
		return []int{1}
	}}
	res, err := Run(elasticConfig(tr, policy.NoWait{}, et, alloc), et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Finish != simtime.Time(4*simtime.Hour) || j.Waiting != simtime.Hour {
		t.Errorf("finish %v waiting %v, want 4h/1h", j.Finish, j.Waiting)
	}
	// Only 3 CPU·h of actual execution billed.
	if math.Abs(j.CPUHours[cloud.OnDemand]-3) > 1e-9 {
		t.Errorf("CPU hours %v, want 3", j.CPUHours[cloud.OnDemand])
	}
}

// An always-suspend allocator cannot starve a job past its queue's
// waiting-time guarantee: the deadline forcibly resumes it at base width,
// so the run terminates.
func TestElasticSuspensionDeadline(t *testing.T) {
	tr := flatTrace(24*10, 100)
	et := workload.MustElasticTrace("starve", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		{MinReplicas: 0, MaxReplicas: 1, Curve: workload.ScaleCurve{1}},
	}, nil)
	cfg := elasticConfig(tr, policy.NoWait{}, et, grantAll(0))
	cfg.WaitShort = 2 * simtime.Hour
	res, err := Run(cfg, et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// Runs [0,60), suspends at 60 (deadline 120 still ahead), forcibly
	// resumes at 120 and cannot be re-suspended: finishes at 180... except
	// the first segment already did the whole hour of work minus nothing —
	// it suspends at the tick with 0 remaining? No: the finish event at 60
	// fires before the tick at 60 (PriorityFinish < PriorityLow), so the
	// job completes untouched.
	if j.Finish != simtime.Time(simtime.Hour) {
		t.Errorf("finish %v, want 1h (finish outranks the tick)", j.Finish)
	}

	// A 90-minute job straddles the boundary: suspended at 60 and 120 is
	// past the 2 h deadline guard only at 120, so it resumes there and
	// finishes at 150.
	et2 := workload.MustElasticTrace("starve2", []workload.Job{
		{Arrival: 0, Length: 90 * simtime.Minute, CPUs: 1},
	}, []workload.ElasticSpec{
		{MinReplicas: 0, MaxReplicas: 1, Curve: workload.ScaleCurve{1}},
	}, nil)
	cfg2 := elasticConfig(tr, policy.NoWait{}, et2, grantAll(0))
	cfg2.WaitShort = 2 * simtime.Hour
	res2, err := Run(cfg2, et2.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Jobs[0].Finish; got != simtime.Time(150*simtime.Minute) {
		t.Errorf("finish %v, want 150 (deadline-forced resume at 120)", got)
	}
}

// DAG precedence: the successor starts only when its predecessor finishes,
// regardless of its own earlier arrival, and its waiting reflects the
// inherited delay.
func TestElasticDAGChainHandChecked(t *testing.T) {
	tr := flatTrace(48, 100)
	et := workload.MustElasticTrace("chain", []workload.Job{
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		workload.DegenerateSpec(), workload.DegenerateSpec(), workload.DegenerateSpec(),
	}, []workload.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	res, err := Run(elasticConfig(tr, policy.NoWait{}, et, policy.StaticAlloc{}), et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	starts := []simtime.Time{0, simtime.Time(2 * simtime.Hour), simtime.Time(3 * simtime.Hour)}
	for i, want := range starts {
		if res.Jobs[i].Start != want {
			t.Errorf("job %d starts %v, want %v", i, res.Jobs[i].Start, want)
		}
	}
	if w := res.Jobs[2].Waiting; w != 3*simtime.Hour {
		t.Errorf("job 2 waiting %v, want 3h (inherited precedence delay)", w)
	}
}

// A predecessor finishing before the successor arrives releases it at
// arrival (ready = max(arrival, last predecessor finish)).
func TestElasticDAGLateArrival(t *testing.T) {
	tr := flatTrace(48, 100)
	et := workload.MustElasticTrace("late", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: simtime.Time(5 * simtime.Hour), Length: simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		workload.DegenerateSpec(), workload.DegenerateSpec(),
	}, []workload.Edge{{Src: 0, Dst: 1}})
	res, err := Run(elasticConfig(tr, policy.NoWait{}, et, policy.StaticAlloc{}), et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[1].Start; got != simtime.Time(5*simtime.Hour) {
		t.Errorf("successor starts %v, want its own arrival 5h", got)
	}
	if w := res.Jobs[1].Waiting; w != 0 {
		t.Errorf("successor waiting %v, want 0", w)
	}
}

// Run rejects an elastic trace that does not wrap the run's workload.
func TestElasticTraceMismatchRejected(t *testing.T) {
	tr := flatTrace(48, 100)
	et := workload.Degenerate(oneJob(simtime.Hour, 1))
	other := oneJob(2*simtime.Hour, 1)
	cfg := elasticConfig(tr, policy.NoWait{}, et, nil)
	if _, err := Run(cfg, other); err == nil {
		t.Fatal("mismatched elastic trace accepted")
	}
}

// Managed elastic jobs are incompatible with the mechanisms that fight
// over finish events; degenerate traces keep every combination.
func TestElasticValidationRules(t *testing.T) {
	tr := flatTrace(48, 100)
	managed := workload.MustElasticTrace("m", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
	}, []workload.ElasticSpec{
		{MinReplicas: 1, MaxReplicas: 2, Curve: workload.ScaleCurve{1, 0.5}},
	}, nil)
	bad := []func(*Config){
		func(c *Config) { c.WorkConserving = true; c.Reserved = 4 },
		func(c *Config) { c.SpotMaxLen = 4 * simtime.Hour; c.EvictionRate = 0.1 },
		func(c *Config) { c.Policy = policy.WaitAwhile{} },
		func(c *Config) { c.Policy = policy.Ecovisor{} },
		func(c *Config) { c.ElasticCapacity = -1 },
	}
	for i, mutate := range bad {
		cfg := elasticConfig(tr, policy.NoWait{}, managed, nil)
		mutate(&cfg)
		if _, err := Run(cfg, managed.Jobs); err == nil {
			t.Errorf("case %d: invalid elastic config accepted", i)
		}
	}
	// The same knobs are fine when nothing is managed.
	degen := workload.Degenerate(managed.Jobs)
	cfg := elasticConfig(tr, policy.NoWait{}, degen, nil)
	cfg.SpotMaxLen = 4 * simtime.Hour
	cfg.EvictionRate = 0.1
	if _, err := Run(cfg, degen.Jobs); err != nil {
		t.Errorf("degenerate elastic + spot rejected: %v", err)
	}
}

// encodedResult is the byte-level pin used by the differentials below.
func encodedResult(t *testing.T, cfg Config, jobs *workload.Trace) ([]byte, *metrics.Result) {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return metrics.EncodeAccumulator(res.Accumulator()), res
}

// TestElasticDegenerateMatchesRigid is the tentpole differential: every
// rigid run is repeated wrapped in an all-degenerate ElasticTrace, and the
// results must be byte-identical to the unwrapped run across every
// mechanism the rigid path supports — including spot, work conservation
// and plan policies, which the wrap must leave alone.
func TestElasticDegenerateMatchesRigid(t *testing.T) {
	tr, jobs := randomInstance(55)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nowait", func(c *Config) { c.Policy = policy.NoWait{} }},
		{"carbon-time", func(c *Config) { c.Policy = policy.CarbonTime{} }},
		{"lowest-window", func(c *Config) { c.Policy = policy.LowestWindow{} }},
		{"critical-path", func(c *Config) { c.Policy = policy.CriticalPathShift{} }},
		{"work-conserving", func(c *Config) {
			c.Policy = policy.AllWait{}
			c.Reserved = 30
			c.WorkConserving = true
		}},
		{"spot", func(c *Config) {
			c.Policy = policy.LowestSlot{}
			c.SpotMaxLen = 4 * simtime.Hour
			c.EvictionRate = 0.25
			c.Seed = 9
		}},
		{"checkpointed-spot", func(c *Config) {
			c.Policy = policy.LowestSlot{}
			c.SpotMaxLen = 4 * simtime.Hour
			c.EvictionRate = 0.25
			c.CheckpointInterval = 30 * simtime.Minute
			c.Seed = 9
		}},
		{"plan-waitawhile", func(c *Config) { c.Policy = policy.WaitAwhile{} }},
		{"plan-ecovisor", func(c *Config) { c.Policy = policy.Ecovisor{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(tr, nil)
			tc.mutate(&cfg)
			rigidBytes, rigidRes := encodedResult(t, cfg, jobs)
			cfg.Elastic = workload.Degenerate(jobs)
			elasticBytes, elasticRes := encodedResult(t, cfg, jobs)
			if !bytes.Equal(rigidBytes, elasticBytes) {
				t.Error("degenerate elastic accumulator differs from rigid run")
			}
			if !reflect.DeepEqual(rigidRes.Jobs, elasticRes.Jobs) {
				t.Error("degenerate elastic per-job records differ from rigid run")
			}
		})
	}
}

// randomElasticInstance builds a seeded malleable+DAG workload over the
// paper's Alibaba arrival process: a mix of degenerate, scalable and
// preemptible specs plus forward precedence edges (arrival-ordered, hence
// acyclic by construction).
func randomElasticInstance(seed int64, n int) (*carbon.Trace, *workload.ElasticTrace) {
	r := newRand(seed)
	tr := carbon.RegionSAAU.Generate(24*14, seed)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(newRand(seed+100), n, simtime.Week)
	specs := make([]workload.ElasticSpec, len(jobs.Jobs))
	for i := range specs {
		switch r.Intn(4) {
		case 0:
			specs[i] = workload.DegenerateSpec()
		case 1: // scalable
			max := 2 + r.Intn(6)
			specs[i] = workload.ElasticSpec{
				MinReplicas: 1, MaxReplicas: max,
				Curve: workload.AmdahlCurve(0.5+0.45*r.Float64(), max),
			}
		case 2: // preemptible and scalable
			max := 2 + r.Intn(3)
			specs[i] = workload.ElasticSpec{
				MinReplicas: 0, MaxReplicas: max,
				Curve: workload.AmdahlCurve(0.6+0.3*r.Float64(), max),
			}
		case 3: // preemptible only
			specs[i] = workload.ElasticSpec{MinReplicas: 0, MaxReplicas: 1, Curve: workload.ScaleCurve{1}}
		}
	}
	seen := map[workload.Edge]bool{}
	var edges []workload.Edge
	for k := 0; k < n/2; k++ {
		i := r.Intn(len(jobs.Jobs) - 1)
		j := i + 1 + r.Intn(len(jobs.Jobs)-1-i)
		e := workload.Edge{Src: i, Dst: j}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return tr, workload.MustElasticTrace("elastic-rand", jobs.Jobs, specs, edges)
}

// stormAlloc is a deterministic pseudo-random allocator: grants depend
// only on (seed, job ID, now), including over-max and zero grants, so the
// clamping rules are exercised identically on wheel and heap.
type stormAlloc struct{ seed uint64 }

func (stormAlloc) Name() string { return "storm" }

func (a stormAlloc) Allocate(views []policy.ElasticJobView, now simtime.Time, _ int, _ *policy.Context) []int {
	grants := make([]int, len(views))
	for i, v := range views {
		h := a.seed ^ uint64(v.ID)*0x9E3779B97F4A7C15 ^ uint64(now)*0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		grants[i] = int(h % uint64(v.Max+2)) // 0..Max+1: suspends and over-grants
	}
	return grants
}

// runWheelAndHeap runs the same elastic config on the timing wheel and on
// the reference heap queue and returns both encodings.
func runWheelAndHeap(t *testing.T, cfg Config, jobs *workload.Trace) (wheel, heapB []byte) {
	t.Helper()
	wheel, _ = encodedResult(t, cfg, jobs)
	cfg.Mechanism = MechanismHeapEngine
	heapB, _ = encodedResult(t, cfg, jobs)
	return wheel, heapB
}

// TestElasticStormWheelVsHeap replays a resize/suspend storm — random
// specs, DAG edges and adversarial pseudo-random grants — on both event
// queues; the Reschedule/Cancel traffic must order identically.
func TestElasticStormWheelVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr, et := randomElasticInstance(seed, 60)
		cfg := elasticConfig(tr, policy.CarbonTime{}, et, stormAlloc{seed: uint64(seed)})
		cfg.Reserved = 40
		wheel, heapB := runWheelAndHeap(t, cfg, et.Jobs)
		if !bytes.Equal(wheel, heapB) {
			t.Errorf("seed %d: wheel and heap diverge under elastic storm", seed)
		}
	}
}

// FuzzElasticWheelVsHeap extends the storm differential to fuzzed seeds,
// allocator behaviours and policies.
func FuzzElasticWheelVsHeap(f *testing.F) {
	f.Add(int64(1), uint64(7), uint8(0))
	f.Add(int64(2), uint64(99), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, allocSeed uint64, policyPick uint8) {
		pols := []policy.Policy{policy.NoWait{}, policy.CarbonTime{}, policy.CriticalPathShift{}}
		tr, et := randomElasticInstance(seed, 30)
		cfg := elasticConfig(tr, pols[int(policyPick)%len(pols)], et, stormAlloc{seed: allocSeed})
		cfg.Reserved = int(allocSeed % 32)
		wheel, heapB := runWheelAndHeap(t, cfg, et.Jobs)
		if !bytes.Equal(wheel, heapB) {
			t.Fatal("wheel and heap diverge")
		}
	})
}

// The GreedyMarginal allocator on real traces must conserve work: total
// useful CPU-time can grow (sublinear scaling) but carbon accounting and
// job counts stay consistent, and every job still finishes.
func TestElasticGreedyMarginalCompletes(t *testing.T) {
	tr, et := randomElasticInstance(11, 80)
	cfg := elasticConfig(tr, policy.CarbonTime{}, et, policy.GreedyMarginal{})
	cfg.Reserved = 50
	cfg.ElasticCapacity = 50
	res, err := Run(cfg, et.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.JobCount(); got != et.Len() {
		t.Fatalf("%d of %d jobs finished", got, et.Len())
	}
	for _, j := range res.Jobs {
		if j.Finish <= j.Start {
			t.Errorf("job %d has empty execution [%v,%v]", j.JobID, j.Start, j.Finish)
		}
	}
}

// Elastic configs must never ride the direct path or the decision-plan
// cache: decisions observe schedule state (precedence releases, hourly
// reallocation) the replay cannot model.
func TestElasticPathAndFingerprintGuards(t *testing.T) {
	tr, jobs := randomInstance(31)
	degen := workload.Degenerate(jobs)

	cfg := baseConfig(tr, policy.CarbonTime{})
	cfg.RetainJobs = false
	cfg.Elastic = degen
	if cfg.DirectPathEligible() {
		t.Error("elastic config is direct-path eligible")
	}
	if tookDirectPath(t, cfg, jobs) {
		t.Error("elastic run took the direct path")
	}
	if _, ok := cfg.DecisionFingerprint(jobs); ok {
		t.Error("elastic config has a decision fingerprint")
	}

	// The full fingerprint still works (known allocator) but must differ
	// from the rigid config's: the cache may never serve a rigid result
	// for an elastic cell or vice versa.
	rigid := baseConfig(tr, policy.CarbonTime{})
	rigid.RetainJobs = false
	rfp, ok := rigid.Fingerprint(jobs)
	if !ok {
		t.Fatal("rigid config not fingerprintable")
	}
	efp, ok := cfg.Fingerprint(jobs)
	if !ok {
		t.Fatal("degenerate elastic config not fingerprintable")
	}
	if rfp == efp {
		t.Error("elastic and rigid configs collide")
	}

	// Allocator identity and capacity are part of the key.
	alt := cfg
	alt.Allocator = policy.GreedyMarginal{}
	afp, ok := alt.Fingerprint(jobs)
	if !ok {
		t.Fatal("greedy-marginal config not fingerprintable")
	}
	if afp == efp {
		t.Error("allocator change did not change the fingerprint")
	}
	capCfg := cfg
	capCfg.ElasticCapacity = 16
	cfp2, ok := capCfg.Fingerprint(jobs)
	if !ok {
		t.Fatal("capacity config not fingerprintable")
	}
	if cfp2 == efp {
		t.Error("capacity change did not change the fingerprint")
	}

	// Unknown allocator implementations are opaque: not cacheable.
	opaque := cfg
	opaque.Allocator = grantAll(1)
	if _, ok := opaque.Fingerprint(jobs); ok {
		t.Error("unknown allocator fingerprinted")
	}
}

// CriticalPathShift is policy tag 9 in the frozen registry.
func TestCriticalPathShiftCacheable(t *testing.T) {
	tag, _, ok := policyIdentity(policy.CriticalPathShift{})
	if !ok || tag != 9 {
		t.Errorf("policyIdentity(CriticalPathShift) = %d,%v, want 9,true", tag, ok)
	}
}
