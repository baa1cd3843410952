// Package scaling implements carbon-aware *demand regulation* — the
// other carbon-saving modality the paper's conclusion defers to future
// work ("we will focus on other carbon-saving modalities, such as
// scaling") and its related work discusses as CarbonScaler: instead of
// only shifting a job in time, an elastic job changes its parallelism
// over time, running wide in clean hours and narrow (or not at all) in
// dirty ones.
//
// The planner is the greedy marginal-allocation algorithm: repeatedly buy
// the cheapest next unit of throughput, where a slot's price is
// CI(slot) / marginal-speedup. Jobs carry a workload.ScaleCurve, the same
// marginal-throughput model the scheduler's elastic allocators read; its
// marginals are non-increasing, so the greedy plan matches the
// continuous-relaxation optimum up to its last, whole marginal unit.
package scaling

import (
	"container/heap"
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// ElasticJob is a malleable batch job: Work serial CPU-hours that may run
// at up to len(Curve) CPUs per hour slot, with diminishing returns given
// by Curve.
type ElasticJob struct {
	Arrival simtime.Time
	// Work is the job volume in serial CPU-hours (time at one CPU).
	Work float64
	// Curve is the per-CPU marginal throughput; its length caps the
	// per-slot allocation.
	Curve workload.ScaleCurve
	// Deadline bounds completion at Arrival+Deadline.
	Deadline simtime.Duration
}

// Validate reports whether the job is well-formed and feasible at maximum
// parallelism within its deadline.
func (j ElasticJob) Validate() error {
	if j.Work <= 0 {
		return fmt.Errorf("scaling: work %v must be positive", j.Work)
	}
	if err := j.Curve.Validate(); err != nil {
		return fmt.Errorf("scaling: %w", err)
	}
	if j.Deadline <= 0 {
		return fmt.Errorf("scaling: deadline %v must be positive", j.Deadline)
	}
	slots := float64(j.Deadline / simtime.Hour)
	if capacity := j.Curve.Throughput(len(j.Curve)) * slots; capacity < j.Work {
		return fmt.Errorf("scaling: infeasible: %v work > %v capacity within deadline", j.Work, capacity)
	}
	return nil
}

// Alloc is one hour-slot's parallelism in a plan.
type Alloc struct {
	Slot int // hour index
	CPUs int
}

// Plan is a per-hour parallelism schedule.
type Plan struct {
	Allocs []Alloc // ascending by slot, zero-CPU slots omitted
}

// CPUHours returns the plan's total resource consumption.
func (p Plan) CPUHours() float64 {
	var total float64
	for _, a := range p.Allocs {
		total += float64(a.CPUs)
	}
	return total
}

// Completion returns the end of the last active slot, or arrival when the
// plan is empty.
func (p Plan) Completion(arrival simtime.Time) simtime.Time {
	if len(p.Allocs) == 0 {
		return arrival
	}
	last := p.Allocs[len(p.Allocs)-1].Slot
	return simtime.Time(simtime.Duration(last+1) * simtime.Hour)
}

// Carbon returns the plan's emissions in grams given the realized trace
// and the power model.
func (p Plan) Carbon(tr *carbon.Trace, pw cloud.Power) float64 {
	var g float64
	for _, a := range p.Allocs {
		iv := simtime.Interval{
			Start: simtime.Time(simtime.Duration(a.Slot) * simtime.Hour),
			End:   simtime.Time(simtime.Duration(a.Slot+1) * simtime.Hour),
		}
		g += pw.Carbon(tr.Integral(iv), a.CPUs)
	}
	return g
}

// slotState tracks a slot's current allocation in the greedy heap.
type slotState struct {
	slot  int
	ci    float64
	cpus  int
	index int
}

// slotHeap orders slots by the carbon price of their next CPU,
// ci / curve[cpus]; a slot leaves the heap once its allocation reaches
// len(curve).
type slotHeap struct {
	items []*slotState
	curve workload.ScaleCurve
}

func (h *slotHeap) Len() int { return len(h.items) }
func (h *slotHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	pa, pb := a.ci/h.curve[a.cpus], b.ci/h.curve[b.cpus]
	if pa != pb {
		return pa < pb
	}
	return a.slot < b.slot // earlier slot on ties: shorter completion
}
func (h *slotHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}
func (h *slotHeap) Push(x any) {
	s := x.(*slotState)
	s.index = len(h.items)
	h.items = append(h.items, s)
}
func (h *slotHeap) Pop() any {
	old := h.items
	n := len(old)
	s := old[n-1]
	h.items = old[:n-1]
	return s
}

// PlanJob builds the carbon-minimal parallelism schedule for the job as
// seen at its arrival, buying marginal throughput in the cheapest
// (CI/marginal-speedup) slots until the work fits. The final marginal
// unit may overshoot slightly, exactly as a real malleable job finishes
// mid-slot.
//
// Slots are whole clock hours, from the one holding Arrival to the one
// holding Arrival+Deadline−1, and each is priced and booked as a full
// hour. The part of the arrival slot before Arrival therefore counts as
// usable time: a 1-hour job arriving at minute 90 whose cheapest slot is
// its first books all of slot 1 and completes at minute 120, 30 minutes
// after it arrived.
func PlanJob(job ElasticJob, cis carbon.Service) (Plan, error) {
	if err := job.Validate(); err != nil {
		return Plan{}, err
	}
	firstSlot := job.Arrival.HourIndex()
	lastSlot := (job.Arrival.Add(job.Deadline) - 1).HourIndex()

	slots := make([]slotState, lastSlot-firstSlot+1)
	h := &slotHeap{items: make([]*slotState, 0, len(slots)), curve: job.Curve}
	for i := range slots {
		s := &slots[i]
		s.slot = firstSlot + i
		slotStart := simtime.Time(simtime.Duration(s.slot) * simtime.Hour)
		s.ci = cis.ForecastIntegral(job.Arrival, simtime.Interval{
			Start: slotStart, End: slotStart.Add(simtime.Hour),
		})
		heap.Push(h, s)
	}

	remaining := job.Work
	for remaining > 1e-12 && h.Len() > 0 {
		s := h.items[0]
		remaining -= job.Curve[s.cpus]
		s.cpus++
		if s.cpus >= len(job.Curve) {
			heap.Pop(h)
		} else {
			heap.Fix(h, s.index)
		}
	}
	if remaining > 1e-12 {
		return Plan{}, fmt.Errorf("scaling: internal: %v work unplaced", remaining)
	}

	var plan Plan
	for _, s := range slots {
		if s.cpus > 0 {
			plan.Allocs = append(plan.Allocs, Alloc{Slot: s.slot, CPUs: s.cpus})
		}
	}
	return plan, nil
}

// StaticPlan runs the job at constant parallelism k from arrival until
// the work completes (the carbon-agnostic baseline; k=1 is the paper's
// uninterruptible single-width execution). Like PlanJob it books whole
// hour slots, starting with the one holding Arrival.
func StaticPlan(job ElasticJob, k int) (Plan, error) {
	if err := job.Validate(); err != nil {
		return Plan{}, err
	}
	if k < 1 || k > len(job.Curve) {
		return Plan{}, fmt.Errorf("scaling: static parallelism %d out of [1, %d]", k, len(job.Curve))
	}
	throughput := job.Curve.Throughput(k)
	remaining := job.Work
	var plan Plan
	slot := job.Arrival.HourIndex()
	for remaining > 1e-12 {
		plan.Allocs = append(plan.Allocs, Alloc{Slot: slot, CPUs: k})
		remaining -= throughput
		slot++
	}
	return plan, nil
}
