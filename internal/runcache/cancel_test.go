package runcache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
)

// TestRunContextCanceledLeaderNotCached verifies a canceled leader's
// error is returned but never cached: the next request recomputes and
// succeeds.
func TestRunContextCanceledLeaderNotCached(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.RunContext(ctx, cfg, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader err = %v, want context.Canceled", err)
	}

	res, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatalf("recompute after cancel failed: %v", err)
	}
	if outcome != Computed {
		t.Fatalf("outcome after canceled leader = %v, want computed (errors are never cached)", outcome)
	}
	if res.JobCount() != jobs.Len() {
		t.Fatalf("recomputed result has %d jobs, want %d", res.JobCount(), jobs.Len())
	}
}

// TestRunContextCanceledWaiter verifies a waiter whose own context ends
// stops waiting with its context error while the leader completes and
// primes the cache normally.
func TestRunContextCanceledWaiter(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()
	res, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Start the cell's flight with gated work, so the waiter
	// deterministically joins an in-flight computation.
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		t.Fatal("fixture config unexpectedly not fingerprintable")
	}
	gate := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.results.do(context.Background(), fp, func(context.Context) (*metrics.Accumulator, Outcome, error) {
			<-gate
			return res.Accumulator(), Computed, nil
		})
		leader <- err
	}()
	waitRefs(t, &c.results, fp, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, outcome, err := c.RunContext(ctx, cfg, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v (outcome %v), want context.Canceled", err, outcome)
	} else if outcome != Dedup {
		t.Fatalf("canceled waiter outcome = %v, want dedup", outcome)
	}

	// The leader finishes: new callers are served from its accumulator.
	close(gate)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	cached, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Hit {
		t.Fatalf("outcome after publish = %v, want hit", outcome)
	}
	if cached.JobCount() != res.JobCount() {
		t.Fatalf("cached job count %d != computed %d", cached.JobCount(), res.JobCount())
	}
}

// heldRemote is a RemoteStore whose Get misses, but only once release is
// closed: it holds the computation of whichever caller leads a cell.
type heldRemote struct {
	once    sync.Once
	entered chan struct{} // closed by the first Get
	release chan struct{}
}

func (r *heldRemote) Get(context.Context, [32]byte) ([]byte, error) {
	r.once.Do(func() { close(r.entered) })
	<-r.release
	return nil, nil
}

func (r *heldRemote) Put(context.Context, [32]byte, []byte) error { return nil }

// TestRunContextWaiterOutlivesCanceledLeader: the caller whose request
// started a cell's computation gives up while another caller, whose
// context is live, waits on it. The leader gets its own context's error;
// the computation runs on for the waiter, whose result equals core.Run.
func TestRunContextWaiterOutlivesCanceledLeader(t *testing.T) {
	cfg, jobs := fixture(t)
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	remote := &heldRemote{entered: make(chan struct{}), release: make(chan struct{})}
	c := New()
	c.SetRemote(remote)

	type answer struct {
		res     *metrics.Result
		outcome Outcome
		err     error
	}
	run := func(ctx context.Context) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			res, outcome, err := c.RunContext(ctx, cfg, jobs)
			ch <- answer{res, outcome, err}
		}()
		return ch
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := run(leaderCtx)
	select {
	case <-remote.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the leader's computation never reached the remote tier")
	}
	waiter := run(context.Background())
	fp, _ := cfg.Fingerprint(jobs)
	waitRefs(t, &c.results, fp, 2)

	cancelLeader()
	select {
	case a := <-leader:
		if !errors.Is(a.err, context.Canceled) {
			t.Errorf("canceled leader err = %v, want context.Canceled", a.err)
		}
	case <-time.After(5 * time.Second):
		t.Error("canceled leader still waiting on the computation")
	}
	close(remote.release)

	select {
	case a := <-waiter:
		if a.err != nil {
			t.Fatalf("live waiter err = %v, want its result", a.err)
		}
		if a.outcome != Dedup {
			t.Errorf("live waiter outcome = %v, want dedup", a.outcome)
		}
		sameResult(t, a.res, want)
	case <-time.After(10 * time.Second):
		t.Fatal("live waiter never got the result")
	}
}
