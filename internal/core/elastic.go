package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// elasticState is the scheduler's malleable-job machinery: precedence
// gating for DAG jobs and the hourly reallocation loop that resizes
// running jobs via Reschedule of their finish events. It exists only when
// the run's ElasticTrace has managed jobs (a non-degenerate spec or a
// precedence edge); every other job takes the rigid path untouched, which
// is what makes the all-degenerate differential byte-identical.
type elasticState struct {
	s        *scheduler
	et       *workload.ElasticTrace
	alloc    policy.ElasticAllocator
	capacity int

	// running holds started, unfinished managed jobs (replicas 0 =
	// suspended) in ascending job ID, the order the allocator's views
	// take; nothing a tick does starts or finishes a job, so the list is
	// fixed for the tick's duration. parked holds arrived jobs still gated
	// on predecessors; preds is the mutable remaining-predecessor count,
	// arrived marks submission so a job releases at max(arrival, last
	// predecessor finish) whichever event comes second.
	running []*elasticJob
	parked  map[int]workload.Job
	preds   []int32
	arrived []bool
	// free pools elasticJob records between finish and the next release,
	// as scheduler.free pools jobState. A suspended job's canceled finish
	// event may still sit in the queue when its record is reused; canceled
	// events never fire.
	free []*elasticJob

	// tickSet tracks whether the hourly reallocation tick is pending; the
	// tick reschedules itself while any managed job is in flight and lapses
	// otherwise, so an idle tail of the trace costs no events. tickFn is
	// the tick method bound once, so scheduling it allocates no closure.
	tickSet bool
	tickFn  func()

	// views is scratch reused across ticks.
	views []policy.ElasticJobView
}

// elasticJob phases dispatched by Fire.
const (
	elPhaseStart uint8 = iota
	elPhaseFinish
)

// elasticJob carries one managed job from release to finish. Like
// jobState it is its own engine Action for both its scheduled phases; the
// finish handle is live between starts and resizes so the hourly tick can
// Reschedule it in O(1).
type elasticJob struct {
	el    *elasticState
	job   workload.Job
	spec  workload.ElasticSpec
	rec   *metrics.JobResult
	phase uint8
	// ready is when the job cleared arrival + precedence; deadline is
	// ready plus the queue's waiting-time guarantee — past it a suspended
	// job is forcibly resumed, which bounds every run's length.
	ready    simtime.Time
	deadline simtime.Time
	// remaining is serial-equivalent work left in unit-minutes; replicas
	// and reserved describe the current allocation; segStart opens the
	// accounting segment the next flush closes.
	remaining float64
	replicas  int
	reserved  int
	segStart  simtime.Time
	finish    sim.Handle
	// scratch is the streaming-mode accounting record (rec points here);
	// with RetainJobs rec points into scheduler.results instead.
	scratch metrics.JobResult
}

// Fire dispatches the elasticJob's scheduled phase.
func (ej *elasticJob) Fire() {
	switch ej.phase {
	case elPhaseStart:
		ej.el.start(ej)
	case elPhaseFinish:
		ej.el.finishJob(ej)
	}
}

// newElasticState builds the machinery for a run whose trace has managed
// jobs. cfg is the defaulted config (Allocator non-nil).
func newElasticState(s *scheduler, et *workload.ElasticTrace) *elasticState {
	el := &elasticState{
		s:        s,
		et:       et,
		alloc:    s.cfg.Allocator,
		capacity: s.cfg.ElasticCapacity,
		parked:   make(map[int]workload.Job),
		preds:    make([]int32, et.Len()),
		arrived:  make([]bool, et.Len()),
	}
	for id := 0; id < et.Len(); id++ {
		el.preds[id] = int32(et.PredCount(id))
	}
	el.tickFn = el.tick
	return el
}

// arrive admits a managed job: parked while predecessors are outstanding,
// released to the policy otherwise.
func (el *elasticState) arrive(job workload.Job) {
	el.arrived[job.ID] = true
	if el.preds[job.ID] > 0 {
		el.parked[job.ID] = job
		return
	}
	el.release(job)
}

// release runs the policy for a job that cleared arrival and precedence.
// now — the later of the two — is the job's ready time: the decision, its
// waiting window, the carbon baseline and the suspension deadline are all
// anchored there, exactly as the rigid path anchors them at arrival.
func (el *elasticState) release(job workload.Job) {
	s := el.s
	now := s.engine.Now()
	var ej *elasticJob
	if n := len(el.free); n > 0 {
		ej, el.free = el.free[n-1], el.free[:n-1]
	} else {
		ej = new(elasticJob)
	}
	*ej = elasticJob{el: el, job: job, spec: el.et.Spec(job.ID), ready: now}
	ej.deadline = now.Add(s.ctx.Queue(job.Queue).MaxWait)
	if s.results != nil {
		ej.rec = &s.results[job.ID]
	} else {
		ej.rec = &ej.scratch
	}
	rec := ej.rec
	rec.JobID = job.ID
	rec.Queue = job.Queue
	rec.User = job.User
	rec.CPUs = job.CPUs
	rec.Length = job.Length
	rec.Arrival = job.Arrival
	rec.BaselineCarbon = s.carbonOf(simtime.Interval{
		Start: now, End: now.Add(job.Length),
	}, job.CPUs)

	d := s.cfg.Policy.Decide(job, now, s.ctx)
	if err := d.Validate(job, now); err != nil {
		panic(fmt.Sprintf("policy %s: %v", s.cfg.Policy.Name(), err))
	}
	if d.IsPlan() {
		panic(fmt.Sprintf("policy %s: suspend-resume plans cannot drive elastic jobs", s.cfg.Policy.Name()))
	}
	ej.phase = elPhaseStart
	s.engine.ScheduleAction(d.Start, sim.PriorityStart, ej)
}

// start begins execution at the base width max(Min, 1); the allocator
// first sees the job at the next hourly tick.
func (el *elasticState) start(ej *elasticJob) {
	s := el.s
	now := s.engine.Now()
	base := ej.spec.MinReplicas
	if base < 1 {
		base = 1
	}
	ej.remaining = float64(ej.job.Length)
	ej.replicas = base
	ej.reserved = s.pool.Acquire(base * ej.job.CPUs)
	ej.segStart = now
	ej.rec.Start = now
	ej.phase = elPhaseFinish
	ej.finish = s.engine.ScheduleAction(now.Add(elasticDur(ej.remaining, ej.rate())), sim.PriorityFinish, ej)
	i, _ := el.runningIndex(ej.job.ID)
	el.running = slices.Insert(el.running, i, ej)
	el.ensureTick(now)
}

// runningIndex returns the position of job id in the ID-ordered running
// list, or where it would be inserted, and whether it is there.
func (el *elasticState) runningIndex(id int) (int, bool) {
	return slices.BinarySearchFunc(el.running, id, func(ej *elasticJob, id int) int {
		return cmp.Compare(ej.job.ID, id)
	})
}

// rate is the job's current serial-equivalent throughput in unit-minutes
// per minute (0 while suspended).
func (ej *elasticJob) rate() float64 { return ej.spec.Curve.Throughput(ej.replicas) }

// elasticDur converts remaining work at a throughput into a whole-minute
// duration, rounding up so the finish event never undershoots the work
// (the final flush clamps the remainder at zero). The epsilon forgives
// float noise from segment splitting so an exact quotient does not round
// an extra minute up.
func elasticDur(remaining, rate float64) simtime.Duration {
	d := simtime.Duration(math.Ceil(remaining/rate - 1e-9))
	if d < 1 {
		d = 1
	}
	return d
}

// flush closes the job's open accounting segment at now, booking the
// replicas' CPU-time reserved-first and advancing remaining by the work
// done. Suspended jobs and empty segments flush to nothing.
func (el *elasticState) flush(ej *elasticJob, now simtime.Time) {
	if ej.replicas == 0 || now <= ej.segStart {
		return
	}
	iv := simtime.Interval{Start: ej.segStart, End: now}
	width := ej.replicas * ej.job.CPUs
	onDemand := width - ej.reserved
	el.s.account(ej.rec, iv, ej.reserved, onDemand, 0, false)
	ej.remaining -= float64(iv.Len()) * ej.rate()
	if ej.remaining < 0 {
		ej.remaining = 0
	}
	ej.segStart = now
}

// finishJob completes a managed job: final segment flushed, capacity
// released, record folded into the accumulator, successors unblocked,
// and the record returned to the pool.
func (el *elasticState) finishJob(ej *elasticJob) {
	s := el.s
	now := s.engine.Now()
	el.flush(ej, now)
	s.pool.Release(ej.reserved)
	ej.reserved = 0
	ej.replicas = 0
	i, ok := el.runningIndex(ej.job.ID)
	if !ok {
		panic(fmt.Sprintf("core: finished elastic job %d is not running", ej.job.ID))
	}
	el.running = slices.Delete(el.running, i, i+1)

	rec := ej.rec
	rec.Finish = now
	// Negative waiting means elasticity beat the serial length — the
	// paper's waiting metric measures completion against the rigid run.
	rec.Waiting = now.Sub(rec.Arrival) - rec.Length
	s.acc.AddJob(rec)

	for _, succ := range el.et.Succs(ej.job.ID) {
		el.preds[succ]--
		if el.preds[succ] == 0 && el.arrived[succ] {
			job := el.parked[int(succ)]
			delete(el.parked, int(succ))
			el.release(job)
		}
	}
	el.free = append(el.free, ej)
}

// ensureTick schedules the hourly reallocation tick at the next hour
// boundary strictly after now, unless one is already pending.
func (el *elasticState) ensureTick(now simtime.Time) {
	if el.tickSet {
		return
	}
	el.tickSet = true
	boundary := simtime.Time(now.HourIndex()+1) * simtime.Time(simtime.Hour)
	el.s.engine.Schedule(boundary, sim.PriorityLow, el.tickFn)
}

// tick is the hourly reallocation boundary: every running managed job's
// view goes to the allocator in one call, grants are clamped to the specs'
// bounds and the waiting-time guarantee, and each change is applied as
// flush + re-acquire + Reschedule of the finish event. Iteration is in
// ascending job ID, the running list's order, so wheel and heap runs
// allocate identically.
func (el *elasticState) tick() {
	el.tickSet = false
	s := el.s
	now := s.engine.Now()
	if len(el.running) == 0 {
		return
	}

	el.views = el.views[:0]
	for _, ej := range el.running {
		// Effective remaining without flushing: the segment stays open so
		// an unchanged grant costs no accounting split.
		er := ej.remaining - float64(now.Sub(ej.segStart))*ej.rate()
		el.views = append(el.views, policy.ElasticJobView{
			ID:          ej.job.ID,
			Queue:       ej.job.Queue,
			CPUs:        ej.job.CPUs,
			ElasticSpec: ej.spec,
			Remaining:   er,
			Replicas:    ej.replicas,
		})
	}

	// The extra-replica budget is the prepaid capacity currently idle —
	// scale-ups are free by construction — further capped by the config
	// bound when one is set. The snapshot is taken once per boundary; a
	// job downsized earlier in the loop frees capacity the allocator
	// could not see until the next tick, which keeps the grant a pure
	// function of the views.
	budget := s.pool.Idle()
	if el.capacity > 0 && el.capacity < budget {
		budget = el.capacity
	}
	grants := el.alloc.Allocate(el.views, now, budget, s.ctx)
	if len(grants) != len(el.views) {
		panic(fmt.Sprintf("allocator %s: %d grants for %d jobs", el.alloc.Name(), len(grants), len(el.views)))
	}
	for i, ej := range el.running {
		el.resize(ej, now, grants[i])
	}
	el.ensureTick(now)
}

// resize applies one allocator grant. target is clamped to [base, Max]
// where base = max(Min, 1), except that a zero grant suspends a
// preemptible job (Min 0) while its waiting-time guarantee has room; at
// the deadline a suspended job is forcibly resumed at base width, so
// progress — and hence termination — is guaranteed past it.
func (el *elasticState) resize(ej *elasticJob, now simtime.Time, target int) {
	s := el.s
	base := ej.spec.MinReplicas
	if base < 1 {
		base = 1
	}
	if target > ej.spec.MaxReplicas {
		target = ej.spec.MaxReplicas
	}
	if target < base {
		if !(target <= 0 && ej.spec.MinReplicas == 0 && now < ej.deadline) {
			target = base
		} else {
			target = 0
		}
	}
	if target == ej.replicas {
		return
	}

	el.flush(ej, now)
	s.pool.Release(ej.reserved)
	ej.reserved = 0

	if target == 0 {
		// Suspend: drop the finish event until a later tick resumes.
		s.engine.Cancel(ej.finish)
		ej.finish = sim.Handle{}
		ej.replicas = 0
		return
	}

	resumed := ej.replicas == 0
	ej.replicas = target
	ej.reserved = s.pool.Acquire(target * ej.job.CPUs)
	ej.segStart = now
	end := now.Add(elasticDur(ej.remaining, ej.rate()))
	if resumed {
		ej.finish = s.engine.ScheduleAction(end, sim.PriorityFinish, ej)
		return
	}
	h, ok := s.engine.Reschedule(ej.finish, end, sim.PriorityFinish)
	if !ok {
		panic(fmt.Sprintf("core: stale finish handle for elastic job %d", ej.job.ID))
	}
	ej.finish = h
}
