package gaia

// One benchmark per table/figure of the paper's evaluation: each runs the
// corresponding experiment end-to-end (workload + carbon generation,
// scheduling, accounting, table rendering) at Quick scale, so
// `go test -bench=Fig -benchmem` both regenerates every figure and tracks
// simulator performance. Use cmd/gaia-exp -full for paper-scale output.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/experiments"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/serve"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Disable the simulation cache: these benchmarks track simulator
	// performance, and a warm cache would serve every iteration after the
	// first from memory. BenchmarkSuiteColdVsWarm measures the cache.
	prev := experiments.ActiveCache()
	experiments.SetCache(nil)
	defer experiments.SetCache(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if out.String() == "" {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkFig01CarbonVariation(b *testing.B)    { benchFigure(b, "fig01") }
func BenchmarkFig02Tension(b *testing.B)            { benchFigure(b, "fig02") }
func BenchmarkFig05TraceDistributions(b *testing.B) { benchFigure(b, "fig05") }
func BenchmarkFig06RegionalCI(b *testing.B)         { benchFigure(b, "fig06") }
func BenchmarkFig07MonthlyCI(b *testing.B)          { benchFigure(b, "fig07") }
func BenchmarkFig08Policies(b *testing.B)           { benchFigure(b, "fig08") }
func BenchmarkFig09SavingsCDF(b *testing.B)         { benchFigure(b, "fig09") }
func BenchmarkFig10ReservedPolicies(b *testing.B)   { benchFigure(b, "fig10") }
func BenchmarkFig11ReservedSweep(b *testing.B)      { benchFigure(b, "fig11") }
func BenchmarkFig12SpotReserved(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13WorkloadTradeoffs(b *testing.B)  { benchFigure(b, "fig13") }
func BenchmarkFig14WaitingSweep(b *testing.B)       { benchFigure(b, "fig14") }
func BenchmarkFig15Regions(b *testing.B)            { benchFigure(b, "fig15") }
func BenchmarkFig16TotalSavings(b *testing.B)       { benchFigure(b, "fig16") }
func BenchmarkFig17ReservedTraces(b *testing.B)     { benchFigure(b, "fig17") }
func BenchmarkFig18SpotSweep(b *testing.B)          { benchFigure(b, "fig18") }
func BenchmarkFig19HybridSweep(b *testing.B)        { benchFigure(b, "fig19") }
func BenchmarkFig20CarbonPrice(b *testing.B)        { benchFigure(b, "fig20") }

// Extensions beyond the paper (see internal/experiments/extensions.go).
func BenchmarkX01ForecastError(b *testing.B)   { benchFigure(b, "x01-forecast") }
func BenchmarkX02EstimateQuality(b *testing.B) { benchFigure(b, "x02-estimates") }
func BenchmarkX03SuspendResume(b *testing.B)   { benchFigure(b, "x03-suspend") }
func BenchmarkX04Prototype(b *testing.B)       { benchFigure(b, "x04-prototype") }
func BenchmarkX05Checkpoint(b *testing.B)      { benchFigure(b, "x05-checkpoint") }
func BenchmarkX06Spatial(b *testing.B)         { benchFigure(b, "x06-spatial") }
func BenchmarkX07CarbonTax(b *testing.B)       { benchFigure(b, "x07-carbontax") }
func BenchmarkX08Scaling(b *testing.B)         { benchFigure(b, "x08-scaling") }
func BenchmarkX09Elastic(b *testing.B)         { benchFigure(b, "x09-elastic") }
func BenchmarkX10DAG(b *testing.B)             { benchFigure(b, "x10-dag") }

// sweepCells builds a 16-cell reserved-size sweep — the canonical sweep
// shape of the evaluation (Figure 11) — shared by the sequential and
// parallel sweep benchmarks below.
func sweepCells() ([]core.Config, *workload.Trace) {
	tr := carbon.RegionSAAU.Generate(24*10, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(2)), 1000, simtime.Week)
	cfgs := make([]core.Config, 16)
	for i := range cfgs {
		cfgs[i] = core.Config{
			Policy:         policy.CarbonTime{},
			Carbon:         tr,
			Reserved:       10 * i,
			WorkConserving: true,
		}
	}
	return cfgs, jobs
}

// BenchmarkSweepSequential runs the 16-cell sweep one cell at a time.
func BenchmarkSweepSequential(b *testing.B) {
	cfgs, jobs := sweepCells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := par.Map(1, cfgs, func(_ int, cfg core.Config) (any, error) {
			return core.Run(cfg, jobs)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel fans the same 16 cells across all cores and
// reports the speedup over an in-benchmark sequential pass.
func BenchmarkSweepParallel(b *testing.B) {
	cfgs, jobs := sweepCells()
	run := func(workers int) error {
		_, err := par.Map(workers, cfgs, func(_ int, cfg core.Config) (any, error) {
			return core.Run(cfg, jobs)
		})
		return err
	}
	seqStart := time.Now()
	if err := run(1); err != nil {
		b.Fatal(err)
	}
	seqTime := time.Since(seqStart)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(0); err != nil {
			b.Fatal(err)
		}
	}
	parPerOp := float64(b.Elapsed()) / float64(b.N)
	if parPerOp > 0 {
		b.ReportMetric(float64(seqTime)/parPerOp, "speedup")
	}
}

// planSweepCells builds a 16-cell reserved-size sweep that is
// direct-eligible (no work-conserving backfill), so every cell projects
// onto one shared decision plan. Counterpart of sweepCells, which keeps
// backfill on and therefore measures the engine path.
func planSweepCells() ([]core.Config, *workload.Trace) {
	tr := carbon.RegionSAAU.Generate(24*10, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(2)), 1000, simtime.Week)
	cfgs := make([]core.Config, 16)
	for i := range cfgs {
		cfgs[i] = core.Config{
			Policy:   policy.CarbonTime{},
			Carbon:   tr,
			Reserved: 10 * i,
		}
	}
	return cfgs, jobs
}

// BenchmarkReservedSweepPlanReuse measures what the plan tier buys a
// reserved-size sweep. The direct sub-benchmark is the cold sweep: every
// cell runs the full decide + replay path. The plan sub-benchmark is the
// warm sweep: the decision plan is computed once outside the timer and
// every cell only replays it. The plan variant also reports the
// warm-over-cold speedup from an in-benchmark cold pass.
func BenchmarkReservedSweepPlanReuse(b *testing.B) {
	cfgs, jobs := planSweepCells()
	nJobs := float64(len(cfgs) * jobs.Len())
	coldSweep := func() error {
		for _, cfg := range cfgs {
			if _, err := core.Run(cfg, jobs); err != nil {
				return err
			}
		}
		return nil
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := coldSweep(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed())/(float64(b.N)*nJobs), "ns/job")
	})

	b.Run("plan", func(b *testing.B) {
		plan, err := core.DecidePlan(context.Background(), cfgs[0], jobs)
		if err != nil {
			b.Fatal(err)
		}
		coldStart := time.Now()
		if err := coldSweep(); err != nil {
			b.Fatal(err)
		}
		coldTime := time.Since(coldStart)

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := core.RunWithPlan(context.Background(), cfg, jobs, plan); err != nil {
					b.Fatal(err)
				}
			}
		}
		warmPerOp := float64(b.Elapsed()) / float64(b.N)
		if warmPerOp > 0 {
			b.ReportMetric(float64(coldTime)/warmPerOp, "speedup")
		}
		b.ReportMetric(warmPerOp/nJobs, "ns/job")
	})
}

// runSuite renders every registered experiment once at quick scale.
func runSuite(b *testing.B) {
	b.Helper()
	for _, e := range experiments.All() {
		out, err := e.Run(experiments.Quick)
		if err != nil {
			b.Fatalf("%s: %v", e.ID, err)
		}
		if out.String() == "" {
			b.Fatalf("%s: empty output", e.ID)
		}
	}
}

// BenchmarkSuiteColdVsWarm is the headline number of the simulation
// cache: the full registered figure suite rendered against a cold cache
// (every unique cell simulates once, duplicates dedup) versus a warm one
// (every cacheable cell served from memory). The warm/cold gap is the
// suite time the cache gives back on re-runs. The figure count rides in
// the sub-benchmark name (like events= and depth= elsewhere) because the
// op is "render the whole suite": when a PR adds figures the workload
// changes, so the name changes and snapshot history restarts instead of
// reading as a regression of unchanged machinery.
func BenchmarkSuiteColdVsWarm(b *testing.B) {
	prev := experiments.ActiveCache()
	defer experiments.SetCache(prev)
	n := len(experiments.All())
	b.Run(fmt.Sprintf("cold/figures=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.SetCache(runcache.New())
			runSuite(b)
		}
	})
	b.Run(fmt.Sprintf("warm/figures=%d", n), func(b *testing.B) {
		experiments.SetCache(runcache.New())
		runSuite(b) // prime the cache outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSuite(b)
		}
	})
}

// BenchmarkFingerprint measures deriving one cell's cache key (canonical
// config encoding; the trace hashes are memoized after the first call).
func BenchmarkFingerprint(b *testing.B) {
	cfgs, jobs := sweepCells()
	cfg := cfgs[7]
	if _, ok := cfg.Fingerprint(jobs); !ok {
		b.Fatal("sweep cell unexpectedly not fingerprintable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cfg.Fingerprint(jobs); !ok {
			b.Fatal("not fingerprintable")
		}
	}
}

// Micro-benchmarks of the hot paths the figures exercise.

// BenchmarkSchedulerThroughput measures end-to-end jobs/second through the
// core scheduler (policy decisions + event simulation + accounting).
func BenchmarkSchedulerThroughput(b *testing.B) {
	tr := carbon.RegionSAAU.Generate(24*40, 1)
	jobs := workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(1)), 2000, 30*simtime.Day)
	cfg := core.Config{
		Policy:         policy.CarbonTime{},
		Carbon:         tr,
		Reserved:       50,
		WorkConserving: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs.Len()), "jobs/op")
}

// BenchmarkMillionJobRun is the scaling benchmark of the streaming
// metrics engine: one simulated year, one million jobs, in both retention
// modes. The sub-benchmark bytes/op is the headline number — streaming
// must hold at least a 5x advantage (pinned by the regression check in
// cmd/gaia-bench; the ratio is ~6x) — and ns/job plus post-GC live-heap
// MB are reported alongside.
func BenchmarkMillionJobRun(b *testing.B) {
	const nJobs = 1_000_000
	tr := carbon.RegionSAAU.GenerateYear(1)
	jobs := workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(1)), nJobs, 350*simtime.Day)
	for _, mode := range []struct {
		name      string
		retain    bool
		mechanism core.Mechanism
	}{
		{"streaming", false, core.MechanismAuto},
		{"retained", true, core.MechanismAuto},
		// The same cell pinned to the event engine: the gap to
		// "streaming" is what the direct-execution run path saves.
		{"streaming/engine", false, core.MechanismEngine},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.Config{
				Policy:     policy.CarbonTime{},
				Carbon:     tr,
				Reserved:   500,
				RetainJobs: mode.retain,
				Mechanism:  mode.mechanism,
			}
			var res interface{ JobCount() int }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := core.Run(cfg, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if r.JobCount() != nJobs {
					b.Fatalf("completed %d jobs", r.JobCount())
				}
				res = r
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/nJobs, "ns/job")
			// Live heap with the last result still referenced: the
			// footprint a caller pays to keep the answer around.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
			runtime.KeepAlive(res)
		})
	}
}

// BenchmarkDirectRun pins the direct-execution run path against the event
// engine on one direct-eligible cell (start-based policy, no work
// conservation, no spot): identical configuration, identical results
// (pinned by the run-path differentials), different mechanism. The
// "direct" ns/job against "engine" ns/job is the tentpole ratio.
func BenchmarkDirectRun(b *testing.B) {
	const nJobs = 200_000
	tr := carbon.RegionSAAU.GenerateYear(1)
	jobs := workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(1)), nJobs, 300*simtime.Day)
	run := func(m core.Mechanism) func(*testing.B) {
		return func(b *testing.B) {
			cfg := core.Config{
				Policy:    policy.CarbonTime{},
				Carbon:    tr,
				Reserved:  100,
				Mechanism: m,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := core.Run(cfg, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if r.JobCount() != nJobs {
					b.Fatalf("completed %d jobs", r.JobCount())
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/nJobs, "ns/job")
		}
	}
	b.Run("direct", run(core.MechanismAuto))
	b.Run("engine", run(core.MechanismEngine))
}

// BenchmarkCarbonIntegral measures the O(1) prefix-sum window integral.
func BenchmarkCarbonIntegral(b *testing.B) {
	tr := carbon.RegionCAUS.GenerateYear(1)
	iv := simtime.Interval{Start: 12345, End: 12345 + simtime.Time(7*simtime.Hour) + 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Integral(iv)
	}
}

// BenchmarkPolicyDecide measures one scheduling decision per policy with
// the oracle fast paths enabled (the simulator's configuration), plus a
// reference-path variant of Carbon-Time for the before/after comparison.
// The slot-granular policies must not allocate in steady state; the
// differential tests in internal/policy pin the exact budgets.
func BenchmarkPolicyDecide(b *testing.B) {
	tr := carbon.RegionSAAU.GenerateYear(1)
	queues := map[workload.Queue]policy.QueueInfo{
		workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: 90 * simtime.Minute},
		workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: 4 * simtime.Hour},
	}
	job := workload.Job{ID: 1, Length: 4 * simtime.Hour, CPUs: 2, Queue: workload.QueueLong}
	bench := func(p policy.Policy, fast bool) func(*testing.B) {
		return func(b *testing.B) {
			ctx := &policy.Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			if fast {
				ctx.EnableFastPaths()
			}
			_ = p.Decide(job, 0, ctx) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Decide(job, simtime.Time(i%100000), ctx)
			}
		}
	}
	for _, p := range []policy.Policy{
		policy.NoWait{}, policy.AllWait{},
		policy.LowestSlot{}, policy.LowestWindow{}, policy.CarbonTime{},
		policy.WaitAwhile{},
	} {
		b.Run(p.Name(), bench(p, true))
	}
	b.Run("CarbonTime-reference", bench(policy.CarbonTime{}, false))
}

// BenchmarkWaitAwhilePlan measures building one suspend-resume plan.
func BenchmarkWaitAwhilePlan(b *testing.B) {
	tr := carbon.RegionSAAU.GenerateYear(1)
	ctx := &policy.Context{
		CIS: carbon.NewPerfectService(tr),
		Queues: map[workload.Queue]policy.QueueInfo{
			workload.QueueLong: {MaxWait: 24 * simtime.Hour, AvgLength: 4 * simtime.Hour},
		},
	}
	job := workload.Job{ID: 1, Length: 6 * simtime.Hour, CPUs: 1, Queue: workload.QueueLong}
	p := policy.WaitAwhile{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Decide(job, simtime.Time(i%100000), ctx)
	}
}

// newBenchServer builds a small advisory service for the HTTP-layer
// benchmarks and returns its base URL.
func newBenchServer(b *testing.B) string {
	b.Helper()
	srv, err := serve.New(serve.Config{
		TraceDays:     7,
		MaxConcurrent: runtime.GOMAXPROCS(0),
		QueueDepth:    1024,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

func benchPost(b *testing.B, url, body string, want int) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		b.Fatalf("status = %d, want %d", resp.StatusCode, want)
	}
}

// BenchmarkAdviseThroughput measures end-to-end /v1/advise requests —
// HTTP decode, admission, an oracle-table policy decision and the carbon
// arithmetic — under client parallelism. This is the serving fast path:
// each request must stay in O(1) table lookups, never a trace scan.
func BenchmarkAdviseThroughput(b *testing.B) {
	url := newBenchServer(b) + "/v1/advise"
	body := `{"policy":"carbon-time","region":"CA-US","length_minutes":120,"arrival_minute":300}`
	benchPost(b, url, body, http.StatusOK) // warm the tables outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, url, body, http.StatusOK)
		}
	})
}

// BenchmarkAdviseBatch measures the per-job cost of /v1/advise/batch: one
// HTTP request carrying N jobs, answered as N NDJSON verdict lines.
// Reported ns/op is per JOB, not per request — directly comparable to
// BenchmarkAdviseThroughput, whose per-request HTTP/decode/admission
// overhead is what batching amortizes away.
//
// "fleet" is the endpoint's design case — a day's queue of template jobs
// (few distinct shapes swept across arrival minutes), where the
// intra-batch memo answers repeated queries from their first verdict.
// "distinct" is the worst case: every job unique, every verdict computed.
func BenchmarkAdviseBatch(b *testing.B) {
	base := newBenchServer(b)
	url := base + "/v1/advise/batch"
	benchPost(b, base+"/v1/advise",
		`{"policy":"carbon-time","region":"CA-US","length_minutes":120,"arrival_minute":300}`,
		http.StatusOK) // warm the tables outside the timer
	batchBody := func(n int, job func(i int) string) string {
		var sb strings.Builder
		sb.WriteString(`{"policy":"carbon-time","region":"CA-US","jobs":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(job(i))
		}
		sb.WriteString(`]}`)
		return sb.String()
	}
	run := func(name string, n int, body string) {
		b.Run(fmt.Sprintf("%s/jobs=%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				benchPost(b, url, body, http.StatusOK)
			}
		})
	}
	for _, n := range []int{1024, 8192} {
		run("fleet", n, batchBody(n, func(i int) string {
			return fmt.Sprintf(`{"length_minutes":%d,"arrival_minute":%d}`, 60+60*(i%2), i%1440)
		}))
	}
	run("distinct", 8192, batchBody(8192, func(i int) string {
		return fmt.Sprintf(`{"length_minutes":%d,"arrival_minute":%d}`, 30+i%300, i)
	}))
}

// BenchmarkSimulateColdVsWarm measures one /v1/simulate cell against a
// cold run cache (every iteration simulates a fresh cell) versus a warm
// one (every iteration is a content-addressed cache hit). The gap is
// what coalescing+caching gives interactive what-if clients.
func BenchmarkSimulateColdVsWarm(b *testing.B) {
	url := newBenchServer(b) + "/v1/simulate"
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := fmt.Sprintf(`{"policy":"carbon-time","region":"SA-AU","jobs":200,"days":2,"seed":%d}`, i+1)
			benchPost(b, url, body, http.StatusOK)
		}
	})
	b.Run("warm", func(b *testing.B) {
		body := `{"policy":"carbon-time","region":"SA-AU","jobs":200,"days":2,"seed":999}`
		benchPost(b, url, body, http.StatusOK) // prime outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, url, body, http.StatusOK)
		}
	})
}
