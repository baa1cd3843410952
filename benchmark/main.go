// Command benchmark measures GAIA end to end from the outside: it calls the
// public functions of each layer (workload, carbon, policy, core, metrics,
// runcache, experiments, serve) and runs the gaia-exp CLI as a child
// process, on inputs generated from a seed.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload year-direct --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out setA   # every workload
//	bash benchmark/run.sh compare setA setB                   # two sets against the bounds
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and writes its spans. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. Any failed output check makes the exit status nonzero.
// README.md explains the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/trace"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"year-direct": runYearDirect,
	"year-engine": runYearEngine,
	"suite":       runSuite,
	"serve-mix":   runServeMix,
}

// workloadOrder is the order of a full set.
var workloadOrder = []string{"year-direct", "year-engine", "suite", "serve-mix"}

// endToEnd lists the metrics an untraced run reports, each meaning the
// same kind of thing on every workload (README.md gives the per-workload
// meaning). BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"op_ms.tail", "ms"},
	{"op2_ms.p50", "ms"},
	{"op2_ms.tail", "ms"},
	{"rate_per_s", "1/s"},
	{"mem_mb", "MB"},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a spans file")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result records, spans files and scratch files")
		gaiaExp = flag.String("gaia-exp", "", "path of a built gaia-exp binary (suite workload and the traced experiments probe)")
		commit  = flag.String("commit", "unknown", "commit stamped into the result record")
		gotrace = flag.String("gotrace", "", "also write a runtime/trace file with one region per span")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark description read by compare")
	)
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if args[0] == "compare" && len(args) == 3 {
			return compareCmd(*bench, args[1], args[2])
		}
		fmt.Fprintln(os.Stderr, "benchmark: usage: benchmark [flags] | benchmark compare <setA> <setB>")
		return 2
	}
	if *name == "all" {
		return runAll(*out)
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadOrder, ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		sc:       fullScale(),
		gaiaExp:  *gaiaExp,
		rep:      newReport(),
		cal:      newCalibrator(),
	}
	e.tr = newTracer(e.traced, *name)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "tmp-"+*name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp

	if *gotrace != "" && e.traced {
		f, err := os.Create(*gotrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		defer trace.Stop()
		e.tr.regions = true
	}

	if err := execute(e, fn); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	res, err := e.rep.result(e.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	stamp := stamps{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: *commit, GoVersion: runtime.Version(),
	}
	e.rep.print(stamp, res)
	if err := writeRecord(*out, stamp, res, e.rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if e.traced {
		spans := fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)
		if err := e.tr.write(filepath.Join(*out, spans)); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload. A traced run first takes the per-layer
// probes, then runs the workload's own loop in the time that is left, and
// reports the Go runtime's collection and allocation totals over both.
func execute(e *env, fn func(*env) error) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if e.traced {
		start := time.Now()
		if err := probeLayers(e); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		left := e.seconds - time.Since(start)
		if min := e.seconds / 4; left < min {
			left = min
		}
		e.seconds = left
		runtime.GC()
	}
	if err := fn(e); err != nil {
		return err
	}
	e.rep.set("calib_ms", "ms", e.cal.s.median(), fmt.Sprintf("calibration kernel, n=%d", e.cal.s.n()))
	if !e.traced {
		e.rep.normalize(e.cal.factor())
		return nil
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	e.rep.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC), "probes and loop")
	e.rep.set("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "probes and loop")
	e.rep.set("runtime.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "probes and loop")
	return nil
}

// env is one run's inputs and outputs.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sc       scale
	gaiaExp  string
	tmp      string // scratch directory, removed when the run ends
	tr       *tracer
	rep      *report
	cal      *calibrator
}

// loop calls iter until the run's measuring time has passed, and at least
// min times. In a traced run spans are on for even iterations only, so the
// odd ones measure the same work untraced (trace_overhead_frac).
//
// Each iteration starts from a collected heap, so whether a collection
// lands inside a timed call does not depend on the garbage earlier
// iterations left. Without that, year-direct's replay tail sat on the edge
// between the replays a collection hit and those it missed, and spread
// 0.14 of its median over ten runs.
func (e *env) loop(min int, iter func(i int) error) error {
	deadline := time.Now().Add(e.seconds)
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		runtime.GC()
		e.tr.on = e.traced && i%2 == 0
		err := iter(i)
		e.tr.on = e.traced
		if err != nil {
			return err
		}
		e.cal.sample()
	}
	return nil
}

// setup runs build e.sc.setupReps times (once in a traced run, where
// setup_s is not reported) and reports the median time as setup_s.
func (e *env) setup(build func() error) error {
	reps := e.sc.setupReps
	if e.traced {
		reps = 1
	}
	var s samples
	for i := 0; i < reps; i++ {
		e.cal.sample()
		d, err := e.tr.do(e.workload+".setup", 1, build)
		if err != nil {
			return err
		}
		s.add(d.Seconds())
	}
	e.rep.set("setup_s", "s", s.median(), fmt.Sprintf("median of %d", reps))
	return nil
}

// tracePair holds a traced loop's operation times: [0] from the even
// iterations (spans on), [1] from the odd ones (spans off).
type tracePair [2]samples

func (p *tracePair) add(i int, d time.Duration) { p[i%2].add(ms(d)) }

// overhead reports trace_overhead_frac in a traced run: the ratio of the
// traced and untraced medians, less 1.
func (e *env) overhead(p *tracePair) {
	if e.traced {
		e.rep.set("trace_overhead_frac", "frac", p[0].median()/p[1].median()-1,
			fmt.Sprintf("traced n=%d, untraced n=%d", p[0].n(), p[1].n()))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and the outcome of every operation.
type report struct {
	metrics   map[string]metric
	notes     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notes: make(map[string]string)}
}

func (r *report) set(name, unit string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// timing sets <prefix>.p50 and <prefix>.tail from the samples of one or
// more rounds, whose values are in unit already. Over several rounds each
// is the median of the rounds' values, so one round that a neighbour on a
// shared machine slowed moves neither.
func (r *report) timing(prefix, unit string, rounds ...*samples) {
	var p50s, tails []float64
	n, level := 0, 1.0
	for _, s := range rounds {
		tail, l := s.tail()
		p50s, tails = append(p50s, s.median()), append(tails, tail)
		n, level = n+s.n(), math.Min(level, l)
	}
	note := fmt.Sprintf("n=%d", n)
	if len(rounds) > 1 {
		note = fmt.Sprintf("median of %d rounds, n=%d", len(rounds), n)
	}
	r.set(prefix+".p50", unit, median(p50s), note)
	r.set(prefix+".tail", unit, median(tails), fmt.Sprintf("%s p%.4g", note, 100*level))
}

// keepRaw saves a metric's value as <name>.raw before it is rescaled to a
// reference speed.
func (r *report) keepRaw(name string) {
	v := r.metrics[name]
	r.set(name+".raw", v.Unit, v.Value, r.notes[name])
}

// normalize rescales the end-to-end times and rates to the reference
// machine speed (calibrator) and keeps each raw value as <name>.raw. A
// metric that already has a raw value was rescaled by its workload.
func (r *report) normalize(factor float64) {
	for _, m := range endToEnd {
		v, ok := r.metrics[m.name]
		_, rescaled := r.metrics[m.name+".raw"]
		if !ok || rescaled {
			continue
		}
		r.keepRaw(m.name)
		switch v.Unit {
		case "s", "ms":
			v.Value *= factor
		case "1/s":
			v.Value /= factor
		}
		r.metrics[m.name] = v
		r.notes[m.name] += fmt.Sprintf("; at reference speed (×%.4f)", factor)
	}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// result selects the metrics a run prints: the end-to-end ones untraced,
// the per-layer ones traced. A missing metric is a bug in this program.
func (r *report) result(traced bool) (result, error) {
	want := make([]string, 0, len(perLayer))
	if traced {
		want = append(want, perLayer...)
	} else {
		for _, m := range endToEnd {
			want = append(want, m.name)
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	if r.attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A percentile that lands on a failed operation is +Inf;
			// JSON has no infinity, so report the largest float instead.
			m.Value = math.MaxFloat64
		}
		res.Metrics[name] = m
	}
	return res, nil
}

type stamps struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
}

// print writes the human-readable summary: stamps, then every reported
// metric with its unit and sample note, then any failed checks.
func (r *report) print(st stamps, res result) {
	fmt.Printf("# %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d commit=%s %s\n",
		st.Workload, st.Seed, st.Seconds, st.Trace, st.NProc, st.GOMAXPROCS, st.Commit, st.GoVersion)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, mark := r.metrics[name], ""
		if _, ok := res.Metrics[name]; !ok {
			mark = "(not in this run's metric set) "
		}
		fmt.Printf("%-44s %14.6g %-6s %s%s\n", name, m.Value, m.Unit, mark, r.notes[name])
	}
	fmt.Printf("# attempted=%d failed=%d failed_frac=%.6g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, p := range r.problems {
		fmt.Printf("# FAILED CHECK: %s\n", p)
	}
}

// runRecord is the file a run leaves in the output directory; compare reads
// these.
type runRecord struct {
	stamps
	Result   result            `json:"result"`
	All      map[string]metric `json:"all_metrics"` // the result's and every other metric the run measured
	Notes    map[string]string `json:"notes"`
	Problems []string          `json:"problems"`
}

func writeRecord(dir string, st stamps, res result, r *report) error {
	data, err := json.MarshalIndent(runRecord{stamps: st, Result: res, All: r.metrics, Notes: r.notes, Problems: r.problems}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", st.Workload, st.Seed, st.Trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// runAll runs every workload in its own child process, one after another,
// so no workload inherits another's heap, and passes the other flags on.
func runAll(out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			pass = append(pass, "--"+f.Name, f.Value.String())
		}
	})
	status := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(self, append([]string{"--workload", w}, pass...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			status = 1
		}
	}
	fmt.Printf("# records in %s\n", out)
	return status
}

// scale sizes every workload. fullScale is the benchmark; the smoke test
// shrinks it so the whole benchmark runs in seconds.
type scale struct {
	setupReps   int // setups per run; setup_s is their median
	probeReps   int // repetitions of each per-layer probe
	yearJobs    int // year-direct trace length
	engineJobs  int // year-engine rigid trace length
	elasticJobs int // year-engine malleable trace length
	serve       serveScale
}

func fullScale() scale {
	return scale{
		setupReps:   3,
		probeReps:   3,
		yearJobs:    1_000_000,
		engineJobs:  100_000,
		elasticJobs: 20_000,
		serve:       fullServeScale(),
	}
}
