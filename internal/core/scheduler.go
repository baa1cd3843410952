package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Run simulates the configured GAIA cluster over the workload trace and
// returns cluster-level accounting. The input trace is never modified: an
// already-normalized trace (the output of workload.NewTrace) is shared
// as-is, so many concurrent Runs over the same trace cost no per-run
// copies. Runs are deterministic for a given (Config, trace).
//
// By default the scheduler streams each finished job into a metrics
// accumulator and keeps no per-job state beyond the jobs in flight, so
// memory is column-sized (tens of bytes per job) regardless of trace
// length; Config.RetainJobs additionally materializes the classic
// Result.Jobs records for per-job consumers. Aggregates are identical in
// both modes.
func Run(cfg Config, jobs *workload.Trace) (res *metrics.Result, err error) {
	return RunContext(context.Background(), cfg, jobs)
}

// interruptStride is how many simulation events execute between
// cancellation probes in RunContext. Coarse enough to keep the event loop
// hot, fine enough that a canceled year-long run stops within well under a
// millisecond of work.
const interruptStride = 4096

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx every few thousand events and, once ctx is done, abandons the
// simulation and returns ctx's error. A run that completes is bit-identical
// to Run — the probe never reorders or drops events — so cached and
// uncancelled results are unaffected. Serving layers use this to make a
// client disconnect actually stop the simulation work it requested.
func RunContext(ctx context.Context, cfg Config, jobs *workload.Trace) (res *metrics.Result, err error) {
	// A run shorter than one probe stride never polls, so an already-dead
	// context is rejected up front rather than simulated to completion.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Scheduler invariant violations surface as panics deep in event
	// callbacks; convert them to errors at the API boundary.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: run failed: %v", r)
		}
	}()

	trace := normalizedTrace(jobs)

	// The elastic specs are keyed by normalized job ID, so the spec trace
	// must wrap this run's jobs — anything else would silently misapply
	// curves and edges across renumbered IDs.
	if cfg.Elastic != nil && cfg.Elastic.Jobs != jobs && cfg.Elastic.Jobs != trace {
		return nil, errors.New("core: config.Elastic must wrap the trace passed to Run")
	}

	// Decision-pure configurations skip the event engine entirely: the
	// direct path decides every job in parallel and replays accounting
	// over sorted endpoints, bit-identical to the engine (direct.go). A
	// pinned Mechanism is never eligible.
	if cfg.directEligible() {
		return runDirect(ctx, cfg, trace)
	}

	bounds := cfg.Queues.Bounds()

	pool, err := cloud.NewReservedPool(cfg.Reserved)
	if err != nil {
		return nil, err
	}
	evict, err := cloud.NewEvictionModel(cfg.EvictionRate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &scheduler{
		cfg:    cfg,
		ctx:    &policy.Context{CIS: cfg.CIS, Queues: policy.QueueTable(cfg.Queues, trace, cfg.AvgLengthOverride)},
		engine: sim.NewEngine(),
		pool:   pool,
		evict:  evict,
		acc:    metrics.NewAccumulator(len(trace.Jobs), cfg.Horizon),
	}
	// With the default perfect CIS, decisions come from the trace's oracle
	// tables, shared by every concurrent Run over that trace; with any
	// other CIS this is a no-op and decisions take the reference path.
	s.ctx.EnableFastPaths()
	if cfg.RetainJobs {
		// A normalized trace numbers jobs 0..n-1, so each job's record
		// lives at results[job.ID]: no append growth, no final sort.
		s.results = make([]metrics.JobResult, len(trace.Jobs))
	}
	if et := cfg.Elastic; et != nil && et.ManagedCount() > 0 {
		s.el = newElasticState(s, et)
		if et.HasEdges() {
			s.ctx.SlackFn = et.Slack
		}
	}
	// Pre-size the jobState pool: its high-water mark is the peak
	// in-flight job count, which the paper's traces keep in the hundreds,
	// so a capped hint removes steady-state append growth without
	// reserving much on huge traces (the slice still grows on demand).
	if hint := len(trace.Jobs); hint > 0 {
		if hint > 1024 {
			hint = 1024
		}
		s.free = make([]*jobState, 0, hint)
	}
	// The scheduler's event loop is allocation-free in steady state: the
	// normalized trace's arrivals feed straight from the trace slice (no
	// materialized arrival events), in-flight jobs ride pooled jobState
	// action records, and the engine's arena recycles fired events. Queue
	// classification happens on the per-event copy of the job, never on
	// the (shared, immutable) trace.
	if cfg.Mechanism == MechanismHeapEngine {
		s.engine.SetQueue(sim.QueueHeap)
	}
	s.engine.SetSource(len(trace.Jobs),
		func(i int) simtime.Time { return trace.Jobs[i].Arrival },
		sim.PriorityArrival,
		func(i int) {
			job := trace.Jobs[i]
			job.Queue = workload.ClassifyLength(job.Length, bounds)
			s.arrive(job)
		})
	if ctx.Done() != nil {
		s.engine.SetInterrupt(interruptStride, func() error { return ctx.Err() })
	}
	s.engine.Run()
	if err := s.engine.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	// The run has ended: drop the spare capacity AddUsage's appends left
	// in the usage bins.
	s.acc.GrowUsage(0)

	res = NewResult(cfg, trace, s.acc)
	res.Jobs = s.results
	return res, nil
}

// NewResult builds the Result Run returns for the canonical config cfg
// over trace around the run's accumulator: every identity field comes
// from cfg and trace, every aggregate from acc. Per-job records, when
// retained, are the caller's to attach. Cache layers rebuild a cached run
// with it, so callers sharing one (immutable) accumulator still get their
// own labels.
func NewResult(cfg Config, trace *workload.Trace, acc *metrics.Accumulator) *metrics.Result {
	res := &metrics.Result{
		Label:    cfg.Label,
		Region:   cfg.Carbon.Region(),
		Workload: trace.Name,
		Reserved: cfg.Reserved,
		Horizon:  cfg.Horizon,
		Pricing:  cfg.Pricing,
	}
	res.AttachAccumulator(acc)
	return res
}

// normalizedTrace returns jobs itself when it already satisfies the
// invariants workload.NewTrace establishes — sorted by arrival, IDs
// numbered in order, every job valid — and a normalizing copy otherwise.
// The fast path is what makes a 30-cell sweep share one immutable trace
// instead of deep-copying it 30 times. Large traces scan in parallel
// shards (scanShards); each checks its first job's arrival against the
// previous shard's last, so a shard boundary hides no inversion.
func normalizedTrace(jobs *workload.Trace) *workload.Trace {
	if scanShards(len(jobs.Jobs), jobs.Jobs, checkNormalized) != nil {
		return workload.MustTrace(jobs.Name, jobs.Jobs)
	}
	return jobs
}

// errNotNormalized marks a trace normalizedTrace must rebuild.
var errNotNormalized = errors.New("core: trace is not normalized")

// checkNormalized is normalizedTrace's scan over jobs[lo:hi].
func checkNormalized(jobs []workload.Job, lo, hi int) error {
	for i := lo; i < hi; i++ {
		j := &jobs[i]
		if j.ID != i || (i > 0 && jobs[i-1].Arrival > j.Arrival) || j.Validate() != nil {
			return errNotNormalized
		}
	}
	return nil
}

// scheduler is the run-scoped state machine driven by the event engine.
type scheduler struct {
	cfg     Config
	ctx     *policy.Context
	engine  *sim.Engine
	pool    *cloud.ReservedPool
	evict   *cloud.EvictionModel
	waiting waitQueue
	acc     *metrics.Accumulator
	// el is the malleable-job machinery, nil unless the run's Elastic
	// trace has managed jobs (elastic.go).
	el *elasticState
	// results holds the retained per-job records (RetainJobs only).
	results []metrics.JobResult
	// free pools jobState records between finish and the next arrival, so
	// per-job state allocation is bounded by the peak in-flight count.
	free []*jobState
}

// jobState phases dispatched by Fire. A job's events fire in strictly
// increasing (time, priority) order — plan windows are disjoint and
// ascending, and an eviction lands at least one run-hour after its
// window's start — so the phase (and, for multi-window runs, the cursor
// next) always names the event that fires next, even when several of the
// job's events are pending at once.
const (
	// phaseStart starts a rigid job at its decided time.
	phaseStart uint8 = iota
	// phasePlannedStart is a work-conservation waiter's planned start.
	phasePlannedStart
	// phaseFinish releases the job's reserved units (none for a spot
	// run) and finishes it at end.
	phaseFinish
	// phaseWindowStart runs plan window next on reserved-first capacity.
	phaseWindowStart
	// phaseWindowEnd releases window next's reserved units; the last
	// window finishes the job.
	phaseWindowEnd
	// phaseSpotWindow runs window next of a clean spot run.
	phaseSpotWindow
	// phaseSpotWaste runs window next of an evicted spot run up to the
	// eviction at end; all of it is wasted.
	phaseSpotWaste
	// phaseCheckpointRun books a clean checkpointed spot run in one go.
	phaseCheckpointRun
	// phaseCheckpointEvicted books an evicted checkpointed spot run: the
	// checkpointed work as useful, the rest up to the eviction as waste.
	phaseCheckpointEvicted
	// phaseRestart restarts the remaining length on reserved-first
	// capacity at the eviction instant.
	phaseRestart
)

// jobState carries one in-flight job through its scheduled events. It is
// the engine Action for every per-job event — rigid, suspend-resume and
// spot alike (no closures, and the record recycles through
// scheduler.free when the job completes) — the work-conservation waiter
// entry, and, in streaming mode, the scratch storage for the job's
// accounting record.
type jobState struct {
	s     *scheduler
	job   workload.Job
	rec   *metrics.JobResult
	phase uint8
	// next is the plan window the next window event belongs to.
	next int32
	// reserved is the reserved units held by the running execution.
	reserved int
	// end is when the current run ends: the finish instant, or the
	// eviction instant of an evicted spot run until it restarts.
	end simtime.Time
	// scratch is the streaming-mode accounting record (rec points here);
	// with RetainJobs rec points into scheduler.results instead.
	scratch metrics.JobResult
	// Work-conservation waiter state: the policy-chosen start event and
	// the position in the planned-start heap.
	plannedStart simtime.Time
	startEvent   sim.Handle
	index        int
	// plan is the execution windows of a suspend-resume or spot run. Its
	// backing array survives the record's trips through scheduler.free, so
	// a pooled record copies a borrowed policy plan (see policy.Decision)
	// without allocating.
	plan []simtime.Interval
	// remaining is the length an evicted spot run restarts with.
	remaining simtime.Duration
}

// Fire dispatches the jobState's scheduled phase.
func (js *jobState) Fire() {
	s := js.s
	switch js.phase {
	case phaseStart:
		s.startJob(js)
	case phasePlannedStart:
		s.startPlanned(js)
	case phaseFinish:
		s.pool.Release(js.reserved)
		s.finish(js, js.end)
	case phaseWindowStart:
		s.startWindow(js)
	case phaseWindowEnd:
		s.endWindow(js)
	case phaseSpotWindow:
		s.runSpotWindow(js)
	case phaseSpotWaste:
		s.wasteSpotWindow(js)
	case phaseCheckpointRun:
		s.account(js.rec, simtime.Interval{Start: s.engine.Now(), End: js.end}, 0, 0, js.job.CPUs, false)
		js.phase = phaseFinish
	case phaseCheckpointEvicted:
		s.wasteCheckpointed(js)
	case phaseRestart:
		s.restart(js)
	}
}

// newJobState takes a pooled (or fresh) jobState for an arriving job and
// points its accounting record at the retained slice or the embedded
// scratch record.
func (s *scheduler) newJobState(job workload.Job) *jobState {
	var js *jobState
	if n := len(s.free); n > 0 {
		js = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*js = jobState{s: s, job: job, plan: js.plan[:0]}
	} else {
		js = &jobState{s: s, job: job}
	}
	if s.results != nil {
		js.rec = &s.results[job.ID]
	} else {
		js.rec = &js.scratch
	}
	return js
}

// arrive handles a job submission.
func (s *scheduler) arrive(job workload.Job) {
	// Managed (malleable or DAG) jobs divert into the elastic machinery;
	// every other job — including all jobs of a degenerate elastic trace —
	// continues through the rigid path below untouched.
	if s.el != nil && s.el.et.Managed(job.ID) {
		s.el.arrive(job)
		return
	}
	now := s.engine.Now()
	js := s.newJobState(job)
	rec := js.rec
	rec.JobID = job.ID
	rec.Queue = job.Queue
	rec.User = job.User
	rec.CPUs = job.CPUs
	rec.Length = job.Length
	rec.Arrival = now
	rec.BaselineCarbon = s.carbonOf(simtime.Interval{
		Start: now, End: now.Add(job.Length),
	}, job.CPUs)

	if s.spotEligible(job) {
		s.scheduleSpot(js)
		return
	}

	// RES-First work conservation: run immediately when the job fits in
	// idle reserved capacity — those units are pre-paid either way.
	if s.cfg.WorkConserving && s.pool.Idle() >= job.CPUs {
		s.startJob(js)
		return
	}

	d := s.cfg.Policy.Decide(job, now, s.ctx)
	if err := d.Validate(job, now); err != nil {
		panic(fmt.Sprintf("policy %s: %v", s.cfg.Policy.Name(), err))
	}

	if d.IsPlan() {
		if s.cfg.WorkConserving {
			panic(fmt.Sprintf("policy %s: suspend-resume plans cannot be work-conserving", s.cfg.Policy.Name()))
		}
		s.schedulePlan(js, d.Plan)
		return
	}

	if s.cfg.WorkConserving {
		js.phase = phasePlannedStart
		js.plannedStart = d.Start
		js.startEvent = s.engine.ScheduleAction(d.Start, sim.PriorityStart, js)
		heap.Push(&s.waiting, js)
		return
	}
	js.phase = phaseStart
	s.engine.ScheduleAction(d.Start, sim.PriorityStart, js)
}

// spotEligible reports whether the job is routed to spot capacity.
func (s *scheduler) spotEligible(job workload.Job) bool {
	return s.cfg.SpotMaxLen > 0 && job.Length <= s.cfg.SpotMaxLen
}

// startPlanned fires when a waiting job's carbon-aware start time arrives
// without a reserved unit having freed up first.
func (s *scheduler) startPlanned(js *jobState) {
	heap.Remove(&s.waiting, js.index)
	s.startJob(js)
}

// startJob begins uninterruptible execution now, filling from idle
// reserved units first and on-demand for the remainder (the resource
// manager's placement rule, §4.1). The same jobState record becomes the
// finish action — no allocation on the hot path.
func (s *scheduler) startJob(js *jobState) {
	now := s.engine.Now()
	reserved := s.pool.Acquire(js.job.CPUs)
	onDemand := js.job.CPUs - reserved
	iv := simtime.Interval{Start: now, End: now.Add(js.job.Length)}
	js.rec.Start = now
	s.account(js.rec, iv, reserved, onDemand, 0, false)
	js.phase = phaseFinish
	js.reserved = reserved
	js.end = iv.End
	s.engine.ScheduleAction(iv.End, sim.PriorityFinish, js)
}

// schedulePlan executes a suspend-resume plan: each window independently
// claims reserved-first capacity at its start and releases it at its end.
// Every window's start is scheduled now, on the job's own record. The
// policy's plan is borrowed, so its normalized windows go to the record's
// own buffer.
func (s *scheduler) schedulePlan(js *jobState, plan []simtime.Interval) {
	plan = policy.NormalizePlan(js.plan[:0], plan, js.job.Length)
	js.rec.Start = plan[0].Start
	js.plan, js.next, js.phase = plan, 0, phaseWindowStart
	for _, iv := range plan {
		s.engine.ScheduleAction(iv.Start, sim.PriorityStart, js)
	}
}

// startWindow begins plan window next and schedules its end.
func (s *scheduler) startWindow(js *jobState) {
	iv := js.plan[js.next]
	reserved := s.pool.Acquire(js.job.CPUs)
	s.account(js.rec, iv, reserved, js.job.CPUs-reserved, 0, false)
	js.phase, js.reserved = phaseWindowEnd, reserved
	s.engine.ScheduleAction(iv.End, sim.PriorityFinish, js)
}

// endWindow releases plan window next's reserved units and finishes the
// job after its last window.
func (s *scheduler) endWindow(js *jobState) {
	s.pool.Release(js.reserved)
	if int(js.next) == len(js.plan)-1 {
		s.finish(js, js.plan[js.next].End)
		return
	}
	js.next++
	js.phase = phaseWindowStart
}

// scheduleSpot runs a spot-eligible job: the policy's carbon-aware
// schedule executes on spot capacity; if the spot allocation is revoked,
// all progress is lost (the paper's assumption) and the job restarts
// immediately on on-demand capacity — falling back to idle reserved units
// first under Spot-RES.
func (s *scheduler) scheduleSpot(js *jobState) {
	now := s.engine.Now()
	job := js.job
	d := s.cfg.Policy.Decide(job, now, s.ctx)
	if err := d.Validate(job, now); err != nil {
		panic(fmt.Sprintf("policy %s: %v", s.cfg.Policy.Name(), err))
	}
	if d.IsPlan() {
		js.plan = policy.NormalizePlan(js.plan[:0], d.Plan, job.Length)
	} else {
		js.plan = append(js.plan[:0], simtime.Interval{Start: d.Start, End: d.Start.Add(job.Length)})
	}
	plan := js.plan

	if s.cfg.CheckpointInterval > 0 && len(plan) == 1 {
		s.scheduleCheckpointedSpot(js, plan[0].Start)
		return
	}

	// Sample the eviction process over the planned execution. Checks
	// occur at whole run-hours within each contiguous interval.
	evictAt := simtime.Time(-1)
	for _, iv := range plan {
		if at, ev := s.evict.SampleEviction(iv.Start, iv.Len()); ev {
			evictAt = at
			break
		}
	}

	js.rec.Start = plan[0].Start
	js.next = 0
	if evictAt < 0 {
		// Clean spot execution.
		js.phase = phaseSpotWindow
		for _, iv := range plan {
			s.engine.ScheduleAction(iv.Start, sim.PriorityStart, js)
		}
		return
	}

	// Evicted: all execution up to evictAt is waste; restart on demand.
	// The window holding evictAt starts before it, so at least one
	// wasted window fires before the restart.
	js.rec.Evictions = 1
	js.phase, js.end, js.remaining = phaseSpotWaste, evictAt, job.Length
	for _, iv := range plan {
		if iv.Start >= evictAt {
			break
		}
		s.engine.ScheduleAction(iv.Start, sim.PriorityStart, js)
	}
	s.engine.ScheduleAction(evictAt, sim.PriorityEvict, js)
}

// runSpotWindow books clean spot window next; the last window schedules
// the job's finish.
func (s *scheduler) runSpotWindow(js *jobState) {
	iv := js.plan[js.next]
	s.account(js.rec, iv, 0, 0, js.job.CPUs, false)
	if int(js.next) < len(js.plan)-1 {
		js.next++
		return
	}
	js.phase, js.end = phaseFinish, iv.End
	s.engine.ScheduleAction(iv.End, sim.PriorityFinish, js)
}

// wasteSpotWindow books window next of an evicted spot run, cut at the
// eviction, as waste; after the last window before the eviction the
// restart fires next.
func (s *scheduler) wasteSpotWindow(js *jobState) {
	wasted := js.plan[js.next]
	if wasted.End > js.end {
		wasted.End = js.end
	}
	s.account(js.rec, wasted, 0, 0, js.job.CPUs, true)
	js.next++
	if int(js.next) == len(js.plan) || js.plan[js.next].Start >= js.end {
		js.phase = phaseRestart
	}
}

// restart runs an evicted job's remaining length from the eviction
// instant, reserved units first, and schedules its finish.
func (s *scheduler) restart(js *jobState) {
	reserved := s.pool.Acquire(js.job.CPUs)
	iv := simtime.Interval{Start: js.end, End: js.end.Add(js.remaining)}
	s.account(js.rec, iv, reserved, js.job.CPUs-reserved, 0, false)
	js.phase, js.reserved, js.end = phaseFinish, reserved, iv.End
	s.engine.ScheduleAction(iv.End, sim.PriorityFinish, js)
}

// scheduleCheckpointedSpot runs a spot job that checkpoints after every
// CheckpointInterval of useful work (each checkpoint costing
// CheckpointOverhead of extra runtime). An eviction loses only the
// progress since the last completed checkpoint; the remainder resumes on
// on-demand capacity (reserved-first), checkpoint-free.
func (s *scheduler) scheduleCheckpointedSpot(js *jobState, start simtime.Time) {
	job := js.job
	ckInt := s.cfg.CheckpointInterval
	ckOver := s.cfg.CheckpointOverhead
	// Checkpoints strictly inside the job (none at completion).
	numCk := int((job.Length - 1) / ckInt)
	padded := job.Length + simtime.Duration(numCk)*ckOver
	cycle := ckInt + ckOver

	js.rec.Start = start
	evictAt, evicted := s.evict.SampleEviction(start, padded)
	if !evicted {
		// Clean run: whole padded execution on spot.
		js.phase, js.end = phaseCheckpointRun, start.Add(padded)
		s.engine.ScheduleAction(start, sim.PriorityStart, js)
		s.engine.ScheduleAction(js.end, sim.PriorityFinish, js)
		return
	}

	js.rec.Evictions = 1
	ran := evictAt.Sub(start)
	savedCycles := int(ran / cycle)
	if savedCycles > numCk {
		savedCycles = numCk
	}
	savedWork := simtime.Duration(savedCycles) * ckInt
	js.phase, js.end, js.remaining = phaseCheckpointEvicted, evictAt, job.Length-savedWork
	s.engine.ScheduleAction(start, sim.PriorityStart, js)
	s.engine.ScheduleAction(evictAt, sim.PriorityEvict, js)
}

// wasteCheckpointed books an evicted checkpointed run at its start:
// everything run on spot is billed and emitted, but only the checkpointed
// work is useful; the rest, up to the eviction, is waste.
func (s *scheduler) wasteCheckpointed(js *jobState) {
	start := s.engine.Now()
	useful := simtime.Interval{Start: start, End: start.Add(js.job.Length - js.remaining)}
	s.account(js.rec, useful, 0, 0, js.job.CPUs, false)
	wasted := simtime.Interval{Start: useful.End, End: js.end}
	s.account(js.rec, wasted, 0, 0, js.job.CPUs, true)
	js.phase = phaseRestart
}

// finish closes a job's record, folds it into the streaming accumulator,
// recycles the jobState, and — under work conservation — hands freed
// reserved units to the earliest-planned waiting jobs.
func (s *scheduler) finish(js *jobState, at simtime.Time) {
	rec := js.rec
	rec.Finish = at
	rec.Waiting = at.Sub(rec.Arrival) - rec.Length
	s.acc.AddJob(rec)
	s.free = append(s.free, js)
	if s.cfg.WorkConserving {
		s.drainWaiting()
	}
}

// drainWaiting starts waiting jobs (earliest planned start first) while
// they fit entirely into idle reserved capacity — the RES-First rule: a
// freed reserved server immediately picks up the next queued job instead
// of idling until that job's carbon-optimal start.
func (s *scheduler) drainWaiting() {
	for s.waiting.Len() > 0 {
		w := s.waiting[0]
		if s.pool.Idle() < w.job.CPUs {
			return
		}
		heap.Pop(&s.waiting)
		s.engine.Cancel(w.startEvent)
		s.startJob(w)
	}
}

// carbonOf converts execution over iv into grams of CO2eq using the
// realized trace.
func (s *scheduler) carbonOf(iv simtime.Interval, cpus int) float64 {
	return s.cfg.Power.Carbon(s.cfg.Carbon.Integral(iv), cpus)
}

// account books one execution interval split across purchase options: the
// scalar totals go to the job record, the usage bins stream into the
// accumulator, and the per-job Segment is materialized only when records
// are retained.
func (s *scheduler) account(rec *metrics.JobResult, iv simtime.Interval, reserved, onDemand, spot int, wasted bool) {
	hours := iv.Len().Hours()
	carbonG := s.carbonOf(iv, reserved+onDemand+spot)
	cost := (float64(onDemand)*s.cfg.Pricing.HourlyRate(cloud.OnDemand) +
		float64(spot)*s.cfg.Pricing.HourlyRate(cloud.Spot)) * hours

	rec.Carbon += carbonG
	rec.UsageCost += cost
	rec.CPUHours[cloud.Reserved] += float64(reserved) * hours
	rec.CPUHours[cloud.OnDemand] += float64(onDemand) * hours
	rec.CPUHours[cloud.Spot] += float64(spot) * hours
	s.acc.AddUsage(iv, reserved, onDemand, spot)
	if s.results != nil {
		rec.Segments = append(rec.Segments, metrics.Segment{
			Interval: iv,
			Reserved: reserved,
			OnDemand: onDemand,
			Spot:     spot,
			Wasted:   wasted,
		})
	}
	if wasted {
		rec.WastedCPUHours += float64(reserved+onDemand+spot) * hours
		rec.WastedCarbon += carbonG
		rec.WastedCost += cost
	}
}

// waitQueue is a heap of work-conservation waiters ordered by planned
// start, then job ID for determinism.
type waitQueue []*jobState

func (q waitQueue) Len() int { return len(q) }

func (q waitQueue) Less(i, j int) bool {
	if q[i].plannedStart != q[j].plannedStart {
		return q[i].plannedStart < q[j].plannedStart
	}
	return q[i].job.ID < q[j].job.ID
}

func (q waitQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *waitQueue) Push(x any) {
	w := x.(*jobState)
	w.index = len(*q)
	*q = append(*q, w)
}

func (q *waitQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}
