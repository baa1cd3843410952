package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// goldenInstance is a small year: a full carbon year and 3000 jobs spread
// over it, long enough for multi-day suspend-resume windows and for jobs
// whose windows run past the trace horizon.
func goldenInstance() (*carbon.Trace, *workload.Trace) {
	tr := carbon.RegionSAAU.GenerateYear(5)
	jobs := workload.AlibabaPAI().GenerateByCount(newRand(11), 3000, simtime.Year)
	return tr, jobs
}

// goldenCase is one engine configuration pinned by TestEnginePathsGolden,
// with the SHA-256 of its encoded accumulator and of its retained job
// records.
type goldenCase struct {
	name      string
	cfg       func(tr *carbon.Trace) Config
	acc, jobs string
	// check asserts that the configuration reaches the path it is meant
	// to pin, so a fixture change cannot silently stop covering it.
	check func(res *metrics.Result) error
}

func goldenCases() []goldenCase {
	base := func(tr *carbon.Trace, p policy.Policy) Config {
		cfg := baseConfig(tr, p)
		cfg.Mechanism = MechanismEngine
		return cfg
	}
	spot := func(p policy.Policy, maxLen simtime.Duration, rate float64) func(*carbon.Trace) Config {
		return func(tr *carbon.Trace) Config {
			cfg := base(tr, p)
			cfg.SpotMaxLen = maxLen
			cfg.EvictionRate = rate
			cfg.Seed = 17
			return cfg
		}
	}
	return []goldenCase{
		{
			name:  "WaitAwhile",
			acc:   "f074a4dab97e613fc329c342f71f9b1f348e1732c10a1414d085c33247a4e8f1",
			jobs:  "051c4feca0fc7fc8d90ac59a382ac337d0230a130bc3060d104a961fdab035d3",
			cfg:   func(tr *carbon.Trace) Config { return base(tr, policy.WaitAwhile{}) },
			check: minSegments(2),
		},
		{
			name: "WaitAwhile-Est",
			acc:  "c363355b75160181c6f1d4c980f5d0dde7c5678cbb9acdf6275421dad3fd5768",
			jobs: "1adc5348c8543e6a89758164f55af3edcdf0268d995e1e3d25338eff287b106e",
			cfg: func(tr *carbon.Trace) Config {
				cfg := base(tr, policy.WaitAwhileEst{})
				cfg.Reserved = 40
				return cfg
			},
			check: minSegments(2),
		},
		{
			name: "Ecovisor",
			acc:  "2399729ac13c311c6d8dbb4751ceaae16de13725c82737c2c0a979e8bee16a08",
			jobs: "a1efd7109388f12ea01d8c1661b5b38e64c7ddd0347057459acbad6eabb04741",
			cfg: func(tr *carbon.Trace) Config {
				cfg := base(tr, policy.Ecovisor{})
				cfg.Reserved = 40
				return cfg
			},
			check: minSegments(2),
		},
		{
			name:  "WaitAwhile-spot-evicted-mid-plan",
			acc:   "f8aacd7ee1e3069f6ec5133f1c95bd791ddc1333730cea0b0fd1d0e555d2e405",
			jobs:  "41f485aa9edf9ae986d21fac0d9c77f2768ec61d84893bcec88ce69c0c3864d2",
			cfg:   spot(policy.WaitAwhile{}, 24*simtime.Hour, 0.2),
			check: evictedAfterSegments(2),
		},
		{
			name:  "Spot-First",
			acc:   "92fe579acecf0540ece79fc96f66d8a6aef408fdeac4451bce96282894b05b37",
			jobs:  "d738a0884eb1deaf7bb6e3c6e28ff6d82a73f03e8a81b7b46fd1b1be8fda93d1",
			cfg:   spot(policy.CarbonTime{}, 2*simtime.Hour, 0.1),
			check: evictedAfterSegments(1),
		},
		{
			name: "Spot-RES",
			acc:  "9c5cd18589b9a2b33a923809ceda3ab7cbba8de766d5413ec5725194be5e76da",
			jobs: "54d9075b6976af05022b7a2df42cd4e8058ba105e76306ff75858f53a13c0cfe",
			cfg: func(tr *carbon.Trace) Config {
				cfg := spot(policy.CarbonTime{}, 2*simtime.Hour, 0.1)(tr)
				cfg.Reserved = 40
				cfg.WorkConserving = true
				return cfg
			},
			check: evictedAfterSegments(1),
		},
		{
			name: "checkpointed-spot",
			acc:  "b6765173479062e2c238f0ab1799668b0e532ec5b217fc777e0a0226217e56cb",
			jobs: "37ff1536861a3cac58e8c9f41d41cc4db4b7e041e4e1ee236e1e0992921c9d5d",
			cfg: func(tr *carbon.Trace) Config {
				cfg := spot(policy.CarbonTime{}, 12*simtime.Hour, 0.2)(tr)
				cfg.Reserved = 20
				// A 78-minute cycle: evictions at the first run-hour save
				// nothing (an empty useful segment), later ones save work.
				cfg.CheckpointInterval = 75 * simtime.Minute
				cfg.CheckpointOverhead = 3 * simtime.Minute
				return cfg
			},
			check: func(res *metrics.Result) error {
				saved, lost := false, false
				for _, j := range res.Jobs {
					if j.Evictions == 0 {
						continue
					}
					if j.Segments[0].Interval.IsEmpty() {
						lost = true
					} else {
						saved = true
					}
				}
				if !saved || !lost {
					return fmt.Errorf("evictions saving work %v, saving none %v; want both", saved, lost)
				}
				return nil
			},
		},
	}
}

// minSegments requires some job to run in at least n execution segments.
func minSegments(n int) func(*metrics.Result) error {
	return func(res *metrics.Result) error {
		for _, j := range res.Jobs {
			if len(j.Segments) >= n {
				return nil
			}
		}
		return fmt.Errorf("no job ran in %d or more segments", n)
	}
}

// evictedAfterSegments requires some job to be evicted after at least n
// wasted segments, i.e. mid-plan when n > 1.
func evictedAfterSegments(n int) func(*metrics.Result) error {
	return func(res *metrics.Result) error {
		for _, j := range res.Jobs {
			wasted := 0
			for _, s := range j.Segments {
				if s.Wasted {
					wasted++
				}
			}
			if j.Evictions > 0 && wasted >= n {
				return nil
			}
		}
		return fmt.Errorf("no job evicted after %d wasted segments", n)
	}
}

// jobRecordsDigest hashes every retained job record bit for bit: the
// scalar fields, the float bit patterns and each execution segment.
func jobRecordsDigest(jobs []metrics.JobResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	for _, j := range jobs {
		put(uint64(j.JobID))
		put(uint64(j.Queue))
		put(uint64(len(j.User)))
		h.Write([]byte(j.User))
		put(uint64(j.CPUs))
		put(uint64(j.Length))
		put(uint64(j.Arrival))
		put(uint64(j.Start))
		put(uint64(j.Finish))
		put(uint64(j.Waiting))
		f(j.Carbon)
		f(j.BaselineCarbon)
		f(j.UsageCost)
		for _, c := range j.CPUHours {
			f(c)
		}
		put(uint64(j.Evictions))
		f(j.WastedCPUHours)
		f(j.WastedCarbon)
		f(j.WastedCost)
		put(uint64(len(j.Segments)))
		for _, s := range j.Segments {
			put(uint64(s.Interval.Start))
			put(uint64(s.Interval.End))
			put(uint64(s.Reserved))
			put(uint64(s.OnDemand))
			put(uint64(s.Spot))
			if s.Wasted {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func accDigest(res *metrics.Result) string {
	return fmt.Sprintf("%x", sha256.Sum256(metrics.EncodeAccumulator(res.Accumulator())))
}

// TestEnginePathsGolden pins the engine's suspend-resume and spot paths
// to their own recorded output: the encoded accumulator and the retained
// job records of each configuration must hash to the digests below, and
// a streaming run must encode the same accumulator as the retained one.
// The wheel/heap and streaming/retained differentials run the same
// scheduler code on both sides, so only a recorded answer catches a
// rewrite of that code that changes what it computes.
func TestEnginePathsGolden(t *testing.T) {
	tr, jobs := goldenInstance()
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(tr)
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.check(res); err != nil {
				t.Fatalf("fixture no longer covers its path: %v", err)
			}
			acc, recs := accDigest(res), jobRecordsDigest(res.Jobs)
			cfg.RetainJobs = false
			streamed, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if s := accDigest(streamed); s != acc {
				t.Errorf("streaming accumulator %s, retained %s", s, acc)
			}
			if acc != c.acc || recs != c.jobs {
				t.Errorf("digests changed:\n acc  %s (want %s)\n jobs %s (want %s)", acc, c.acc, recs, c.jobs)
			}
		})
	}
}

// TestEnginePathAllocs pins the per-job allocations of the engine's
// suspend-resume, spot, elastic and DAG paths on a 20k-job year (10k
// jobs for the DAG), built like TestReplayAllocs. Every per-job event
// rides the job's pooled jobState, and policy plans are borrowed: each is
// normalized into the record's own plan buffer, which survives pooling,
// and WaitAwhile ranks its slots in one rolling window. What is left is
// the records and buffers up to the peak in-flight count. Allocations per
// job on this instance, with one closure per event → pooled actions →
// borrowed plans: WaitAwhile 7.40 → 2.55 → 0.021, WaitAwhile-Est 6.79 →
// 2.49 → 0.016, Ecovisor 4.58 → 2.01 → 0.014, WaitAwhile on spot 6.79 →
// 2.55 → 0.022, Spot-RES 1.29 → 0.005 → 0.008, checkpointed spot 1.96 →
// 0.005 → 0.008 (a spot start decision now fills the record's plan
// buffer, allocated once per record). Managed elastic jobs ride pooled
// elasticJob records in one ID-ordered running list, and the allocators'
// grants are borrowed: the elastic row went from 2.81 (a method value per
// hourly tick) to 2.41 (the tick bound once per run) to 0.008, and the
// DAG row from 1.81 to 0.012. Each ceiling, 0.1, sits below what one
// allocation per plan, per spot job or per managed job adds back (1 per
// job).
func TestEnginePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := carbon.RegionSAAU.GenerateYear(5)
	jobs := workload.AlibabaPAI().GenerateByCount(newRand(12), 20000, simtime.Year)
	spot := Config{Policy: policy.CarbonTime{}, Carbon: tr, SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: 7}
	spotRES := spot
	spotRES.Reserved = 100
	waSpot := spot
	waSpot.Policy, waSpot.SpotMaxLen = policy.WaitAwhile{}, 24*simtime.Hour
	ckSpot := spot
	ckSpot.Reserved, ckSpot.SpotMaxLen, ckSpot.EvictionRate = 20, 12*simtime.Hour, 0.1
	ckSpot.CheckpointInterval, ckSpot.CheckpointOverhead = 75*simtime.Minute, 3*simtime.Minute
	// The elastic row runs the x09 mix through Greedy-Marginal's hourly
	// ticks; the DAG row releases every diamond stage through predecessor
	// bookkeeping under the default Static-Min allocator.
	et := x09Mix("allocs-elastic", jobs)
	elastic := Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 60, Elastic: et,
		Allocator: policy.GreedyMarginal{}, Horizon: simtime.Year}
	dag := diamondDAG(2000, workload.DegenerateSpec())
	dagCfg := Config{Policy: policy.CriticalPathShift{}, Carbon: tr, Elastic: dag, Horizon: simtime.Year}
	for _, c := range []struct {
		name    string
		cfg     Config
		jobs    *workload.Trace
		ceiling float64
	}{
		{"WaitAwhile", Config{Policy: policy.WaitAwhile{}, Carbon: tr}, jobs, 0.1},
		{"WaitAwhile-Est", Config{Policy: policy.WaitAwhileEst{}, Carbon: tr}, jobs, 0.1},
		{"Ecovisor", Config{Policy: policy.Ecovisor{}, Carbon: tr}, jobs, 0.1},
		{"WaitAwhile-spot", waSpot, jobs, 0.1},
		{"Spot-RES", spotRES, jobs, 0.1},
		{"checkpointed-spot", ckSpot, jobs, 0.1},
		{"elastic", elastic, et.Jobs, 0.1},
		{"dag", dagCfg, dag.Jobs, 0.1},
	} {
		if _, err := Run(c.cfg, c.jobs); err != nil {
			t.Fatal(err)
		}
		perJob := testing.AllocsPerRun(2, func() {
			if _, err := Run(c.cfg, c.jobs); err != nil {
				t.Fatal(err)
			}
		}) / float64(c.jobs.Len())
		t.Logf("%s: %.3f allocs per job", c.name, perJob)
		if perJob > c.ceiling {
			t.Errorf("%s: %.3f allocs per job, ceiling %.2f (a per-event closure, a per-job plan copy or a per-tick grant back on the engine path?)", c.name, perJob, c.ceiling)
		}
	}
}
