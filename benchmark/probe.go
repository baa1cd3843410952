package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/experiments"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// perLayer lists the metrics a traced run reports. Every traced run,
// whatever its workload, takes the same per-layer probes, so each name is
// measured in every traced run; BENCHMARK.json lists the same names.
var perLayer = perLayerNames()

func perLayerNames() []string {
	names := []string{
		"calib_ms", "trace_overhead_frac", "runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.alloc_mb",
		"workload.generate_s", "workload.normalize_ms",
		"carbon.generate_ms", "carbon.oracle_build_ms",
		"policy.decide_ns.carbon-time", "policy.decide_ns.wait-awhile", "policy.fastpath_hit_frac",
		"core.run_ms", "core.decide_ms", "core.replay_ms", "core.run_residual_ms",
		"core.decide_ms.cpu1", "core.replay_ms.cpu1", "core.decide_speedup", "core.replay_speedup",
	}
	for _, c := range engineCellNames {
		names = append(names, "core.cell_ms."+c)
	}
	names = append(names,
		"core.plan_encode_ms", "core.plan_decode_ms", "core.plan_bytes",
		"metrics.aggregates_ms", "metrics.encode_ms", "metrics.decode_ms", "metrics.codec_bytes",
		"runcache.fingerprint_first_ms", "runcache.fingerprint_us", "runcache.mem_hit_ms", "runcache.disk_hit_ms")
	for _, o := range outcomeMetrics {
		names = append(names, "runcache.outcome."+o.name)
	}
	names = append(names, "runcache.avoided_frac.cold", "runcache.avoided_frac.warm",
		"experiments.start_and_fixtures_s", "experiments.maxrss_mb")
	for _, e := range experiments.All() {
		names = append(names, "experiments.figure_ms."+e.ID, "experiments.figure_warm_ms."+e.ID)
	}
	return append(names,
		"serve.handler_us.advise", "serve.handler_us_per_job.batch",
		"serve.handler_ms.simulate_cold", "serve.handler_ms.simulate_hit",
		"serve.server_ms.advise.mean", "serve.server_ms.advise_batch.mean", "serve.server_ms.simulate.mean",
		"serve.client_overhead_ms.advise", "serve.low.advise_ms.p50", "serve.low.simulate_ms.p50",
		"serve.advise_ms.p99", "serve.sender_late_ms.p99", "serve.shed_frac", "serve.coalesce.joined",
		"serve.cache.computed", "serve.cache.hit", "serve.cache.dedup",
		"serve.batch_us_per_job.p50")
}

var engineCellNames = []string{"wc-carbontime", "waitawhile", "spot-res", "elastic"}

// outcomeMetrics are the runcache outcome counts kept from the cold and
// warm in-process suite passes: the ones those passes produce.
var outcomeMetrics = []struct {
	name string
	get  func(experiments.CellStats) int
	warm bool
}{
	{"computed.cold", func(s experiments.CellStats) int { return s.Computed }, false},
	{"hit.cold", func(s experiments.CellStats) int { return s.Hits }, false},
	{"dedup.cold", func(s experiments.CellStats) int { return s.Dedups }, false},
	{"plan-hit.cold", func(s experiments.CellStats) int { return s.PlanHits }, false},
	{"bypass.cold", func(s experiments.CellStats) int { return s.Bypassed }, false},
	{"disk-hit.warm", func(s experiments.CellStats) int { return s.DiskHits }, true},
	{"hit.warm", func(s experiments.CellStats) int { return s.Hits }, true},
	{"bypass.warm", func(s experiments.CellStats) int { return s.Bypassed }, true},
}

// prober takes the per-layer probes: each times calls into one layer's
// public functions on inputs generated from the run's seed.
type prober struct {
	e    *env
	reps int
	tr   *carbon.Trace   // the carbon year
	jobs *workload.Trace // the year-direct trace

	procWall samples // seconds per -j 1 gaia-exp process
}

// probeLayers takes every per-layer probe, in layer order.
func probeLayers(e *env) error {
	p := &prober{e: e, reps: e.sc.probeReps}
	for _, step := range []func() error{
		p.gaiaExpProcess, p.workloadAndCarbon, p.policy, p.core, p.cells, p.runcache, p.experiments, p.serve,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// median times f reps times under a span and returns the median in ms.
func (p *prober) median(name string, count int64, f func() error) (float64, error) {
	var s samples
	for i := 0; i < p.reps; i++ {
		d, err := p.e.tr.do(name, count, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		s.add(ms(d))
	}
	return s.median(), nil
}

func (p *prober) set(name, unit string, v float64) {
	p.e.rep.set(name, unit, v, fmt.Sprintf("probe, median of %d", p.reps))
}

func (p *prober) workloadAndCarbon() error {
	r := p.e.rep
	d, _ := p.e.tr.do("workload.GenerateByCount", int64(p.e.sc.yearJobs), func() error {
		p.jobs = yearTrace(p.e.seed, p.e.sc.yearJobs)
		return nil
	})
	r.set("workload.generate_s", "s", d.Seconds(), fmt.Sprintf("%d jobs", p.e.sc.yearJobs))
	v, err := p.median("workload.NewTrace", int64(p.jobs.Len()), func() error {
		_, err := workload.NewTrace(p.jobs.Name, p.jobs.Jobs)
		return err
	})
	if err != nil {
		return err
	}
	p.set("workload.normalize_ms", "ms", v)

	v, _ = p.median("carbon.GenerateYear", 1, func() error {
		p.tr = carbon.RegionSAAU.GenerateYear(p.e.seed)
		return nil
	})
	p.set("carbon.generate_ms", "ms", v)
	// The tables a year run's queues need: (6 h, short mean) and (24 h,
	// long mean), each first built on a fresh trace.
	means := p.jobs.MeanLengthsByBounds([]simtime.Duration{2 * simtime.Hour})
	var oracle samples
	for i := 0; i < p.reps; i++ {
		fresh := carbon.RegionSAAU.GenerateYear(p.e.seed)
		d, _ := p.e.tr.do("carbon.Oracle.Queue", 2, func() error {
			o := fresh.Oracle()
			o.Queue(6*simtime.Hour, means[0])
			o.Queue(24*simtime.Hour, means[1])
			return nil
		})
		oracle.add(ms(d))
	}
	p.set("carbon.oracle_build_ms", "ms", oracle.median())
	return nil
}

// policy times Decide over every job of the year-engine trace with the
// oracle fast paths on, as core.Run configures them.
func (p *prober) policy() error {
	jobs := yearTrace(p.e.seed, p.e.sc.engineJobs)
	bounds := []simtime.Duration{2 * simtime.Hour}
	means := jobs.MeanLengthsByBounds(bounds)
	queues := map[workload.Queue]policy.QueueInfo{
		workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: means[0]},
		workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: means[1]},
	}
	list := append([]workload.Job(nil), jobs.Jobs...)
	for i := range list {
		list[i].Queue = workload.ClassifyLength(list[i].Length, bounds)
	}
	var hits, decisions int64
	for _, pol := range []struct {
		tag string
		p   policy.Policy
	}{{"carbon-time", policy.CarbonTime{}}, {"wait-awhile", policy.WaitAwhile{}}} {
		ctx := &policy.Context{CIS: carbon.NewPerfectService(p.tr), Queues: queues}
		ctx.EnableFastPaths()
		v, _ := p.median("policy.Decide."+pol.tag, int64(len(list)), func() error {
			for _, j := range list {
				pol.p.Decide(j, j.Arrival, ctx)
			}
			return nil
		})
		hits += ctx.FastPathHits()
		decisions += int64(p.reps * len(list))
		p.set("policy.decide_ns."+pol.tag, "ns", v*1e6/float64(len(list)))
	}
	p.set("policy.fastpath_hit_frac", "frac", float64(hits)/float64(decisions))
	return nil
}

// core splits core.Run on the year cell into its decide and replay
// phases, at GOMAXPROCS = nproc and at 1, and times the plan and
// accumulator codecs and the first aggregates of a fresh result.
func (p *prober) core() error {
	cfg := yearCell(p.tr)
	ctx := context.Background()
	if _, err := core.DecidePlan(ctx, cfg, p.jobs); err != nil { // builds the oracle tables
		return err
	}
	var plan *core.DecisionPlan
	var rep *metrics.Result
	// split times one decide and the first replay of the plan it made.
	split := func(suffix string, decide, replay *samples) error {
		d, err := p.e.tr.do("core.DecidePlan"+suffix, 1, func() (err error) {
			plan, err = core.DecidePlan(ctx, cfg, p.jobs)
			return err
		})
		if err != nil {
			return err
		}
		decide.add(ms(d))
		d, err = p.e.tr.do("core.RunWithPlan"+suffix, 1, func() (err error) {
			rep, err = core.RunWithPlan(ctx, cfg, p.jobs, plan)
			return err
		})
		replay.add(ms(d))
		return err
	}

	var run, decide, replay, aggs samples
	var res *metrics.Result
	for i := 0; i < p.reps; i++ {
		d, err := p.e.tr.do("core.Run", 1, func() (err error) {
			res, err = core.Run(cfg, p.jobs)
			return err
		})
		if err != nil {
			return err
		}
		run.add(ms(d))
		d, _ = p.e.tr.do("metrics.aggregates", 4, func() error {
			res.TotalCarbon()
			res.TotalCost()
			res.WaitingPercentile(95)
			res.UsageSeries(res.Horizon)
			return nil
		})
		aggs.add(ms(d))
		if err := split("", &decide, &replay); err != nil {
			return err
		}
		p.e.rep.op(sameBytes("year cell: RunWithPlan accumulator",
			metrics.EncodeAccumulator(rep.Accumulator()), metrics.EncodeAccumulator(res.Accumulator())))
	}
	p.set("core.run_ms", "ms", run.median())
	p.set("core.decide_ms", "ms", decide.median())
	p.set("core.replay_ms", "ms", replay.median())
	p.set("core.run_residual_ms", "ms", run.median()-decide.median()-replay.median())
	p.set("metrics.aggregates_ms", "ms", aggs.median())

	// The same two phases on one core: the speedups are what the decide
	// fan-out and the parallel replay gain from the other cores.
	var decide1, replay1 samples
	procs := runtime.GOMAXPROCS(1)
	var err error
	for i := 0; i < p.reps && err == nil; i++ {
		err = split(".cpu1", &decide1, &replay1)
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	p.set("core.decide_ms.cpu1", "ms", decide1.median())
	p.set("core.replay_ms.cpu1", "ms", replay1.median())
	p.set("core.decide_speedup", "x", decide1.median()/decide.median())
	p.set("core.replay_speedup", "x", replay1.median()/replay.median())

	var blob []byte
	v, _ := p.median("core.EncodeDecisionPlan", 1, func() error {
		blob = core.EncodeDecisionPlan(plan)
		return nil
	})
	p.set("core.plan_encode_ms", "ms", v)
	if v, err = p.median("core.DecodeDecisionPlan", 1, func() error {
		_, err := core.DecodeDecisionPlan(blob)
		return err
	}); err != nil {
		return err
	}
	p.set("core.plan_decode_ms", "ms", v)
	p.e.rep.set("core.plan_bytes", "bytes", float64(len(blob)), "")

	v, _ = p.median("metrics.EncodeAccumulator", 1, func() error {
		blob = metrics.EncodeAccumulator(res.Accumulator())
		return nil
	})
	p.set("metrics.encode_ms", "ms", v)
	var back *metrics.Accumulator
	if v, err = p.median("metrics.DecodeAccumulator", 1, func() (err error) {
		back, err = metrics.DecodeAccumulator(blob)
		return err
	}); err != nil {
		return err
	}
	p.set("metrics.decode_ms", "ms", v)
	p.e.rep.set("metrics.codec_bytes", "bytes", float64(len(blob)), "")
	p.e.rep.op(sameBytes("accumulator after a codec round trip", metrics.EncodeAccumulator(back), blob))
	return nil
}

// sameBytes reports an error naming what differs when got is not want.
func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the reference's %d", what, len(got), len(want))
	}
	return nil
}

// cells times each year-engine cell.
func (p *prober) cells() error {
	for _, c := range engineCells(p.e.seed, p.e.sc) {
		var s samples
		for i := 0; i < p.reps; i++ {
			_, d, err := runCell(p.e, c)
			p.e.rep.op(err)
			s.add(ms(d))
		}
		p.set("core.cell_ms."+c.name, "ms", s.median())
	}
	return nil
}

// runcache times the cache on the year cell: the first fingerprint
// (hashing both traces), a memoized one, a memory hit, and a disk hit
// from a fresh cache over a primed directory.
func (p *prober) runcache() error {
	var first samples
	var cfg core.Config
	var jobs *workload.Trace
	for i := 0; i < p.reps; i++ {
		// New trace instances: the fingerprint memo is per instance.
		cfg = yearCell(carbon.RegionSAAU.GenerateYear(p.e.seed))
		jobs = &workload.Trace{Name: p.jobs.Name, Jobs: p.jobs.Jobs}
		d, _ := p.e.tr.do("core.Config.Fingerprint.first", 1, func() error {
			cfg.Fingerprint(jobs)
			return nil
		})
		first.add(ms(d))
	}
	p.set("runcache.fingerprint_first_ms", "ms", first.median())
	const n = 1000
	v, _ := p.median("core.Config.Fingerprint", n, func() error {
		for i := 0; i < n; i++ {
			cfg.Fingerprint(jobs)
		}
		return nil
	})
	p.set("runcache.fingerprint_us", "us", v*1e3/n)

	dir := filepath.Join(p.e.tmp, "runcache")
	defer os.RemoveAll(dir)
	c := runcache.New()
	c.Logf = func(string, ...any) {}
	if err := c.SetDir(dir); err != nil {
		return err
	}
	if _, _, err := c.Run(cfg, jobs); err != nil {
		return err
	}
	hit := func(c *runcache.Cache, want runcache.Outcome) func() error {
		return func() error {
			_, got, err := c.Run(cfg, jobs)
			if err == nil && got != want {
				err = fmt.Errorf("runcache outcome %s, want %s", got, want)
			}
			p.e.rep.op(err)
			return nil
		}
	}
	v, _ = p.median("runcache.Cache.Run.hit", 1, hit(c, runcache.Hit))
	p.set("runcache.mem_hit_ms", "ms", v)
	var disk samples
	for i := 0; i < p.reps; i++ {
		fresh := runcache.New()
		fresh.Logf = c.Logf
		if err := fresh.SetDir(dir); err != nil {
			return err
		}
		d, _ := p.e.tr.do("runcache.Cache.Run.disk", 1, hit(fresh, runcache.DiskHit))
		disk.add(ms(d))
	}
	p.set("runcache.disk_hit_ms", "ms", disk.median())
	return nil
}

// experiments renders the figure suite in process: a cold pass priming a
// disk cache and a warm pass reading it (runcache outcome counts), then
// each figure alone on a fresh in-memory cache, cold and again warm. The
// fixtures are built by the first pass, so per-figure times exclude them;
// the -j 1 gaia-exp processes timed first give the rest.
func (p *prober) experiments() error {
	prev := experiments.ActiveCache()
	defer experiments.SetCache(prev)
	dir := filepath.Join(p.e.tmp, "expcache")
	defer os.RemoveAll(dir)
	for _, warm := range []bool{false, true} {
		c := runcache.New()
		c.Logf = func(string, ...any) {}
		if err := c.SetDir(dir); err != nil {
			return err
		}
		experiments.SetCache(c)
		experiments.ResetCacheStats()
		pass := "cold"
		if warm {
			pass = "warm"
		}
		for _, ex := range experiments.All() {
			if _, err := p.e.tr.do("experiments.pass."+pass+"."+ex.ID, 1, func() error {
				_, err := ex.Run(experiments.Quick)
				return err
			}); err != nil {
				return fmt.Errorf("%s: %w", ex.ID, err)
			}
		}
		_, _, total := experiments.CacheStats()
		for _, o := range outcomeMetrics {
			if o.warm == warm {
				p.e.rep.set("runcache.outcome."+o.name, "count", float64(o.get(total)), "in-process suite pass")
			}
		}
		p.e.rep.set("runcache.avoided_frac."+pass, "frac", float64(total.Avoided())/float64(total.Total()), "in-process suite pass")
	}

	var sum float64
	for _, ex := range experiments.All() {
		var cold, warm samples
		for i := 0; i < p.reps; i++ {
			experiments.SetCache(runcache.New())
			for _, s := range []*samples{&cold, &warm} {
				d, err := p.e.tr.do("experiments.figure."+ex.ID, 1, func() error {
					_, err := ex.Run(experiments.Quick)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s: %w", ex.ID, err)
				}
				s.add(ms(d))
			}
		}
		p.set("experiments.figure_ms."+ex.ID, "ms", cold.median())
		p.set("experiments.figure_warm_ms."+ex.ID, "ms", warm.median())
		sum += cold.median()
	}

	p.set("experiments.start_and_fixtures_s", "s", p.procWall.median()-sum/1e3)
	return nil
}

// gaiaExpProcess times -j 1 gaia-exp processes for start_and_fixtures_s
// and their peak memory. It runs before any other probe: a child's peak
// RSS as Linux reports it includes the parent's resident set at the
// fork, so the parent must still be small.
func (p *prober) gaiaExpProcess() error {
	var rss samples
	for i := 0; i < p.reps; i++ {
		var r expRun
		_, err := p.e.tr.do("gaia-exp.j1", 1, func() (err error) {
			r, err = runGaiaExp(p.e.gaiaExp, filepath.Join(p.e.tmp, "expout"), "-j", "1")
			return err
		})
		if err != nil {
			return err
		}
		p.procWall.add(r.wall.Seconds())
		rss.add(r.maxRSS)
	}
	p.set("experiments.maxrss_mb", "MB", rss.median())
	return nil
}

// serve times the handlers in process (no socket), then runs a short
// open-loop low and high phase over loopback and reads the server's own
// view from /metrics.
func (p *prober) serve() error {
	sc := p.e.sc.serve
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)
	s, err := startServer()
	if err != nil {
		return err
	}
	defer s.stop()
	m := newMix(p.e.seed, sc)
	if err := prime(s, clients, m); err != nil {
		return err
	}
	h := s.srv.Handler()
	call := func(r *request) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, kindPath[r.kind], bytes.NewReader(r.body)))
		return checkAnswer(sc.batchJobs)(r, rec.Code, rec.Body.Bytes())
	}
	const nAdvise, nBatch, nSim = 2000, 50, 10
	v, err := p.median("serve.handler.advise", nAdvise, func() error {
		for i := 0; i < nAdvise; i++ {
			if err := call(m.advise[i%len(m.advise)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("serve.handler_us.advise", "us", v*1e3/nAdvise)
	v, err = p.median("serve.handler.batch", nBatch*int64(sc.batchJobs), func() error {
		for i := 0; i < nBatch; i++ {
			if err := call(m.batch[i%len(m.batch)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("serve.handler_us_per_job.batch", "us", v*1e3/float64(nBatch*sc.batchJobs))
	var cold, hit samples
	for i := 0; i < nSim; i++ {
		fresh := &request{kind: kindSimulate, fresh: true,
			body: m.simulateBody(i%2, i%len(regions), p.e.seed*1_000_000+900_000+int64(i))}
		for _, t := range []struct {
			s *samples
			r *request
		}{{&cold, fresh}, {&hit, m.pool[i%len(m.pool)]}} {
			d, err := p.e.tr.do("serve.handler.simulate", 1, func() error { return call(t.r) })
			if err != nil {
				return err
			}
			t.s.add(ms(d))
		}
	}
	p.e.rep.set("serve.handler_ms.simulate_cold", "ms", cold.median(), fmt.Sprintf("probe, median of %d", nSim))
	p.e.rep.set("serve.handler_ms.simulate_hit", "ms", hit.median(), fmt.Sprintf("probe, median of %d", nSim))

	before, err := scrape(clients[0], s.base)
	if err != nil {
		return err
	}
	low := phaseRun(p.e, s, clients, m, "serve.probe.low", sc.lowRate, sc.probePhase, false)
	mid, err := scrape(clients[0], s.base)
	if err != nil {
		return err
	}
	high := phaseRun(p.e, s, clients, m, "serve.probe.high", sc.highRate, 2*sc.probePhase, false)
	after, err := scrape(clients[0], s.base)
	if err != nil {
		return err
	}
	account(p.e.rep, low)
	account(p.e.rep, high)
	note := "probe phase"
	r := p.e.rep
	// The server's histogram buckets start at 1 ms, too coarse for
	// sub-millisecond medians, so its own view is the mean (sum ÷ count).
	for _, ep := range []string{"advise", "advise_batch", "simulate"} {
		r.set("serve.server_ms."+ep+".mean", "ms", 1e3*serverMean(mid, after, ep), "probe high phase, /metrics sum÷count")
	}
	r.set("serve.client_overhead_ms.advise", "ms", mean(high.lat[kindAdvise].vals)-1e3*serverMean(mid, after, "advise"),
		"probe high phase, client mean − server mean")
	r.set("serve.low.advise_ms.p50", "ms", low.lat[kindAdvise].median(), note)
	r.set("serve.low.simulate_ms.p50", "ms", low.lat[kindSimulate].median(), note)
	r.set("serve.advise_ms.p99", "ms", high.lat[kindAdvise].percentile(0.99), note)
	r.set("serve.sender_late_ms.p99", "ms", high.late.percentile(0.99), note)
	shed := after.sum("gaia_serve_shed_total") - before.sum("gaia_serve_shed_total")
	r.set("serve.shed_frac", "frac", shed/float64(low.scheduled+high.scheduled), note)
	joined := `gaia_serve_coalesce_total{role="joined"}`
	r.set("serve.coalesce.joined", "count", after[joined]-before[joined], note)
	for _, o := range []string{"computed", "hit", "dedup"} {
		key := `gaia_serve_simulate_cache_total{outcome="` + o + `"}`
		r.set("serve.cache."+o, "count", after[key]-before[key], "probe phases")
	}
	r.set("serve.batch_us_per_job.p50", "us", 1e3*high.lat[kindBatch].median()/float64(sc.batchJobs), note)
	return nil
}

// series is one parse of the server's /metrics text: each series (name
// plus labels) with its value.
type series map[string]float64

func scrape(c *http.Client, base string) (series, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(series)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sum adds every series of one metric name.
func (s series) sum(name string) float64 {
	var total float64
	for key, v := range s {
		if strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// serverMean is an endpoint's mean request seconds between two scrapes.
func serverMean(a, b series, endpoint string) float64 {
	sum := `gaia_serve_request_seconds_sum{endpoint="` + endpoint + `"}`
	count := `gaia_serve_request_seconds_count{endpoint="` + endpoint + `"}`
	n := b[count] - a[count]
	if n <= 0 {
		return 0
	}
	return (b[sum] - a[sum]) / n
}
