// Package workload models batch jobs and cluster workload traces: the job
// and queue abstractions GAIA schedules, plus trace transforms and
// distribution-calibrated synthetic generators standing in for the
// Alibaba-PAI, Azure-VM and Mustang-HPC production traces used in the
// paper (real traces in the same CSV schema can be loaded instead).
package workload

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/simtime"
)

// Job is one batch job: it arrives, needs CPUs resource units for Length,
// and runs to completion once started (suspend-resume baselines may split
// it across slots). IDs are unique within a trace.
type Job struct {
	ID      int
	Arrival simtime.Time
	// Length is the job's actual execution time. Schedulers may not see
	// it (that is policy-dependent); the simulator uses it to know when
	// the job completes.
	Length simtime.Duration
	// CPUs is the number of homogeneous resource units held concurrently.
	CPUs int
	// Queue is the length queue the job belongs to. The paper assumes
	// users classify their jobs correctly, so every run sets it on its own
	// copy of each arriving job from its QueueLadder (ClassifyLength) and
	// never reads a trace's stored value; AssignQueues and the CSV schema
	// keep it only as a label for exported traces.
	Queue Queue
	// User identifies the submitting account for per-user accounting
	// (queues may also represent "user classes", §4.1). Optional.
	User string
}

// Validate reports whether the job is well-formed.
func (j Job) Validate() error {
	if j.Length <= 0 {
		return fmt.Errorf("workload: job %d has non-positive length %v", j.ID, j.Length)
	}
	if j.CPUs <= 0 {
		return fmt.Errorf("workload: job %d has non-positive CPUs %d", j.ID, j.CPUs)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("workload: job %d has negative arrival %v", j.ID, j.Arrival)
	}
	return nil
}

// End returns the completion time if the job starts at start.
func (j Job) End(start simtime.Time) simtime.Time { return start.Add(j.Length) }

// CPUHours returns the job's total compute volume in CPU·hours.
func (j Job) CPUHours() float64 { return j.Length.Hours() * float64(j.CPUs) }
