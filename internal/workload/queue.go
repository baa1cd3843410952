package workload

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/simtime"
)

// Queue identifies a job-length queue by its index in a QueueLadder.
// Queues give the scheduler a coarse upper bound on job length without
// requiring users to declare exact lengths or deadlines (paper §2.2,
// §4.2). The paper's evaluation uses two queues (short/long); a run may
// describe any number — see core.Config.Queues.
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

// QueueSpec is one queue of a ladder: the inclusive length bound routing
// jobs into it and the maximum waiting time W the scheduler guarantees.
type QueueSpec struct {
	// MaxLength is the queue's inclusive job-length bound; 0 on the last
	// queue means unbounded.
	MaxLength simtime.Duration
	// MaxWait is the queue's waiting-time guarantee; 0 means no waiting.
	MaxWait simtime.Duration
}

// QueueLadder describes a run's queues as ascending length classes (§4.2:
// "our policies can be extended to an arbitrary number of queues"); nil
// means the paper's two queues with their default waits. Runs classify
// each arriving job from their own ladder (ClassifyLength over Bounds); a
// trace's stored Queue tags are labels that no simulation reads.
type QueueLadder []QueueSpec

// PaperQueues returns the paper's two queues — jobs up to DefaultShortMax
// long, then every longer job — with the given waiting-time guarantees.
func PaperQueues(waitShort, waitLong simtime.Duration) QueueLadder {
	return QueueLadder{
		{MaxLength: DefaultShortMax, MaxWait: waitShort},
		{MaxLength: 0, MaxWait: waitLong},
	}
}

// OrDefault returns l, or the paper's two queues when l is empty.
func (l QueueLadder) OrDefault() QueueLadder {
	if len(l) == 0 {
		return PaperQueues(DefaultWaitShort, DefaultWaitLong)
	}
	return l
}

// Bounds returns the classification bounds ClassifyLength takes: the
// MaxLength of every queue of the (defaulted) ladder but the last.
func (l QueueLadder) Bounds() []simtime.Duration {
	l = l.OrDefault()
	bounds := make([]simtime.Duration, len(l)-1)
	for i := range bounds {
		bounds[i] = l[i].MaxLength
	}
	return bounds
}

// Validate names the first malformed queue: a negative wait or length
// bound, an unbounded queue before the last, or a bound that does not
// ascend. A nil ladder is valid.
func (l QueueLadder) Validate() error {
	for i, q := range l {
		name := Queue(i)
		switch {
		case q.MaxWait < 0:
			return fmt.Errorf("workload: queue %v has negative wait %v", name, q.MaxWait)
		case q.MaxLength < 0:
			return fmt.Errorf("workload: queue %v has negative length bound %v", name, q.MaxLength)
		case i == len(l)-1:
		case q.MaxLength == 0:
			return fmt.Errorf("workload: queue %v is unbounded but not the last queue", name)
		case l[i+1].MaxLength != 0 && l[i+1].MaxLength <= q.MaxLength:
			return fmt.Errorf("workload: queue bounds must ascend (queue %v: %v >= %v)", name, q.MaxLength, l[i+1].MaxLength)
		}
	}
	return nil
}

// ClassifyLength returns the queue a job of the given length belongs to
// under the ascending bounds (QueueLadder.Bounds): the first queue whose
// bound admits it, or queue len(bounds) for jobs longer than every bound.
func ClassifyLength(length simtime.Duration, bounds []simtime.Duration) Queue {
	for k, b := range bounds {
		if length <= b {
			return Queue(k)
		}
	}
	return Queue(len(bounds))
}
