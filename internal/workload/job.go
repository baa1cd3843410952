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

// Queue identifies the job-length queue a job is submitted to (by index).
// Queues give the scheduler a coarse upper bound on job length without
// requiring users to declare exact lengths or deadlines (paper §2.2,
// §4.2). The paper's evaluation uses two queues (short/long); the
// framework supports any number — see core.Config.Queues.
type Queue int

// The paper's two-queue configuration.
const (
	QueueShort Queue = iota
	QueueLong
)

// The paper's queue defaults: jobs up to DefaultShortMax long go to the
// short queue, and the short and long queues guarantee waits of at most
// DefaultWaitShort and DefaultWaitLong.
const (
	DefaultShortMax  = 2 * simtime.Hour
	DefaultWaitShort = 6 * simtime.Hour
	DefaultWaitLong  = 24 * simtime.Hour
)

// String returns "short"/"long" for the paper's two queues and "qN"
// otherwise.
func (q Queue) String() string {
	switch q {
	case QueueShort:
		return "short"
	case QueueLong:
		return "long"
	default:
		return fmt.Sprintf("q%d", int(q))
	}
}

// ParseQueue inverts String.
func ParseQueue(s string) (Queue, error) {
	switch s {
	case "short":
		return QueueShort, nil
	case "long":
		return QueueLong, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "q%d", &n); err != nil || n < 0 {
		return 0, fmt.Errorf("workload: unknown queue %q", s)
	}
	return Queue(n), nil
}

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
	// Queue is the length queue the job was submitted to. The paper
	// assumes users classify their jobs correctly; AssignQueues does so
	// from the true length.
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
