// Package batch is a Slurm-like batch system running on the elastic
// cluster model — the counterpart of the paper's GAIA *prototype* on AWS
// ParallelCluster (§5). Where internal/core (the GAIA-Simulator) books
// idealized per-job intervals, this runtime schedules jobs onto individual
// nodes with boot delays, gang allocation for multi-CPU jobs, idle
// timeouts, and spot interruption, and bills entire instance lifetimes.
//
// GAIA sits in front as in the paper's deployment: submissions are
// intercepted, held until the policy's carbon-aware start time, and then
// released into the node queue (see Frontend).
package batch

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/cluster"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// JobState is a batch job's lifecycle state (a subset of Slurm's).
type JobState int

// Job lifecycle. Requeued covers spot-interrupted jobs awaiting restart.
const (
	Pending JobState = iota
	Running
	Completed
	Requeued
)

// String names the state like sacct would.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Completed:
		return "COMPLETED"
	case Requeued:
		return "REQUEUED"
	default:
		return fmt.Sprintf("STATE(%d)", int(s))
	}
}

// Job is one batch job's accounting record.
type Job struct {
	Spec  workload.Job
	State JobState
	// Submit is the user's submission instant; Start the first execution
	// instant; End the completion instant.
	Submit, Start, End simtime.Time
	// Attempts counts executions: one per suspend-resume plan segment
	// plus one per restart after a spot interruption.
	Attempts int
	// Interruptions counts spot revocations that killed a running
	// execution of this job.
	Interruptions int
	// ReservedBusyCarbon accumulates carbon for reserved nodes while
	// this job occupied them (reserved nodes are powered off when idle,
	// so their carbon is attributed per use; elastic nodes are accounted
	// whole-lifetime by the cluster manager).
	ReservedBusyCarbon float64

	started  bool
	nodes    []*cluster.Node
	segStart simtime.Time
	// onSuspend fires when a non-final plan segment completes, letting
	// the frontend schedule the next segment without overlap even when
	// boot delays pushed this one late.
	onSuspend func()
}

// Waiting returns the job's total non-running delay.
func (j *Job) Waiting() simtime.Duration {
	return j.End.Sub(j.Submit) - j.Spec.Length
}

// request is one gang allocation demand in the node queue.
type request struct {
	job *Job
	// prefs is the idle-node acquisition preference order.
	prefs []cloud.Option
	// launch is the option launched to cover a deficit; a negative value
	// means never launch (wait for idle capacity only).
	launch cloud.Option
	held   []*cluster.Node
	// duration is this execution segment's length (suspend-resume jobs
	// run as several segments; 0 means the job's full length).
	duration simtime.Duration
	// final marks the segment whose end completes the job.
	final bool
}

func (r *request) segLength() simtime.Duration {
	if r.duration > 0 {
		return r.duration
	}
	return r.job.Spec.Length
}

// NeverLaunch as a Release/Upgrade launch option means "wait for idle
// capacity, never scale up" — the reserved-only waiting phase of the
// AllWait-Threshold baseline.
const NeverLaunch cloud.Option = -1

// System is the batch scheduler: a FIFO node queue over the elastic
// cluster with per-request elastic scale-up.
type System struct {
	engine  *sim.Engine
	mgr     *cluster.Manager
	pending []*request
	jobs    []*Job
	power   interface {
		Carbon(float64, int) float64
	}
	carbonIntegral func(simtime.Interval) float64
	// retry is kick's reusable snapshot of pending (kick never runs
	// inside itself: nodes become ready and jobs finish only in events).
	retry []*request
}

// NewSystem wires the batch layer onto a cluster manager.
func NewSystem(engine *sim.Engine, mgr *cluster.Manager, power cloud.Power, integral func(simtime.Interval) float64) *System {
	s := &System{engine: engine, mgr: mgr, power: power, carbonIntegral: integral}
	mgr.SetOnReady(s.kick)
	return s
}

// Jobs returns every job record (in submission order).
func (s *System) Jobs() []*Job { return s.jobs }

// Submit registers a job at the current instant; execution is deferred
// until Release (GAIA's hold-until-start mechanism).
func (s *System) Submit(spec workload.Job) *Job {
	j := &Job{Spec: spec, State: Pending, Submit: s.engine.Now()}
	s.jobs = append(s.jobs, j)
	return j
}

// Release enqueues the job for execution with the given placement: idle
// nodes are claimed in prefs order, and any deficit launches fresh nodes
// of the launch option (neverLaunch waits for capacity instead — pass a
// negative option). Multi-CPU jobs gang-allocate: claimed nodes are held
// until the full set is ready.
func (s *System) Release(j *Job, prefs []cloud.Option, launch cloud.Option) {
	req := &request{job: j, prefs: prefs, launch: launch, final: true}
	s.pending = append(s.pending, req)
	s.satisfy(req)
	s.startIfReady(req)
}

// ReleaseSegment enqueues one suspend-resume execution segment of the job
// (Slurm-style scontrol suspend/resume driven by GAIA's plan): the job
// runs for duration, then releases its nodes; the final segment completes
// it. Segments must be released in order and not overlap.
func (s *System) ReleaseSegment(j *Job, duration simtime.Duration, final bool, prefs []cloud.Option, launch cloud.Option) {
	req := &request{job: j, prefs: prefs, launch: launch, duration: duration, final: final}
	s.pending = append(s.pending, req)
	s.satisfy(req)
	s.startIfReady(req)
}

// satisfy claims idle nodes and launches the remaining deficit.
func (s *System) satisfy(req *request) {
	for len(req.held) < req.job.Spec.CPUs {
		n := s.mgr.Acquire(req.prefs...)
		if n == nil {
			break
		}
		req.held = append(req.held, n)
	}
	if req.launch < 0 {
		return
	}
	// Launch the deficit once; boots arrive via the ready callback.
	deficit := req.job.Spec.CPUs - len(req.held) - s.outstandingLaunches(req)
	for i := 0; i < deficit; i++ {
		s.mgr.Launch(req.launch)
	}
}

// outstandingLaunches counts nodes of the request's launch option still
// provisioning — a fleet-wide approximation that avoids double-launching
// when several requests boot nodes concurrently.
func (s *System) outstandingLaunches(req *request) int {
	if req.launch < 0 {
		return 0
	}
	count := s.mgr.Provisioning(req.launch)
	// Subtract claims of requests ahead of this one in the queue.
	for _, other := range s.pending {
		if other == req {
			break
		}
		if other.launch == req.launch {
			count -= other.job.Spec.CPUs - len(other.held)
		}
	}
	if count < 0 {
		count = 0
	}
	return count
}

// Upgrade changes a still-pending job's placement (e.g. a job that waited
// for reserved capacity reaching its deadline and falling back to
// on-demand). It is a no-op once the job is running.
func (s *System) Upgrade(j *Job, prefs []cloud.Option, launch cloud.Option) {
	for _, req := range s.pending {
		if req.job == j {
			req.prefs = prefs
			req.launch = launch
			s.satisfy(req)
			s.startIfReady(req)
			return
		}
	}
}

// kick retries the pending queue in FIFO order whenever capacity appears.
func (s *System) kick() {
	s.retry = append(s.retry[:0], s.pending...)
	for _, req := range s.retry {
		s.satisfy(req)
		s.startIfReady(req)
	}
}

// startIfReady launches execution once the gang is complete.
func (s *System) startIfReady(req *request) {
	j := req.job
	if len(req.held) < j.Spec.CPUs {
		return
	}
	s.removePending(req)
	now := s.engine.Now()
	if !j.started {
		j.started = true
		j.Start = now
	}
	j.State = Running
	j.Attempts++
	j.nodes = req.held
	j.segStart = now
	segLen := req.segLength()
	end := now.Add(segLen)

	interrupted := false
	for _, n := range req.held {
		n := n
		s.mgr.Occupy(n, func(dead *cluster.Node) {
			if interrupted || j.State != Running {
				return
			}
			interrupted = true
			s.interrupt(j, dead)
		})
		s.mgr.StartSpotClock(n, segLen)
	}

	s.engine.Schedule(end, sim.PriorityFinish, func() {
		if j.State != Running || interrupted {
			return
		}
		j.End = end
		s.accountReserved(j, j.segStart, end)
		for _, n := range j.nodes {
			s.mgr.ReleaseNode(n)
		}
		j.nodes = nil
		if req.final {
			j.State = Completed
		} else {
			// Suspended between plan segments; the next ReleaseSegment
			// resumes it.
			j.State = Pending
		}
		s.kick()
		if !req.final && j.onSuspend != nil {
			j.onSuspend()
		}
	})
}

// interrupt handles a spot revocation: all progress is lost (the paper's
// assumption); surviving nodes are released and the job requeues on
// reserved-then-on-demand capacity.
func (s *System) interrupt(j *Job, dead *cluster.Node) {
	j.Interruptions++
	now := s.engine.Now()
	// Book reserved busy time of the lost segment (spot gangs normally
	// hold no reserved nodes, but a requeued mixed gang can).
	s.accountReserved(j, j.segStart, now)
	for _, n := range j.nodes {
		if n != dead && n.State == cluster.Busy {
			s.mgr.ReleaseNode(n)
		}
	}
	j.nodes = nil
	j.State = Requeued
	s.Release(j, []cloud.Option{cloud.Reserved, cloud.OnDemand}, cloud.OnDemand)
}

// accountReserved books busy-time carbon for the reserved nodes of a
// finished execution segment.
func (s *System) accountReserved(j *Job, start, end simtime.Time) {
	for _, n := range j.nodes {
		if n.Option == cloud.Reserved {
			iv := simtime.Interval{Start: start, End: end}
			j.ReservedBusyCarbon += s.power.Carbon(s.carbonIntegral(iv), 1)
		}
	}
}

func (s *System) removePending(req *request) {
	for i, r := range s.pending {
		if r == req {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}
