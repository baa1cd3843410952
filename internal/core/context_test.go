package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func contextTestFixture() (Config, *workload.Trace) {
	tr := carbon.RegionSAAU.Generate(24*10, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(3)), 500, simtime.Week)
	cfg := Config{
		Policy:         policy.CarbonTime{},
		Carbon:         tr,
		Reserved:       20,
		WorkConserving: true,
	}
	return cfg, jobs
}

// TestRunContextCanceled verifies a pre-canceled context stops the run
// with the context's error instead of a result.
func TestRunContextCanceled(t *testing.T) {
	cfg, jobs := contextTestFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, cfg, jobs)
	if res != nil {
		t.Fatalf("canceled run returned a result: %v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextMatchesRun pins that an uncancelled RunContext is
// bit-identical to Run: the interrupt probe must not perturb the event
// sequence or the accounting.
func TestRunContextMatchesRun(t *testing.T) {
	cfg, jobs := contextTestFixture()
	plain, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := RunContext(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Background has no Done channel, so no probe is installed at all —
	// but exercise a live (never canceled) context too.
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	liveRes, err := RunContext(live, cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*struct {
		carbon, cost float64
		wait         simtime.Duration
		n            int
	}{
		"background": {ctxRes.TotalCarbon(), ctxRes.TotalCost(), ctxRes.TotalWaiting(), ctxRes.JobCount()},
		"live":       {liveRes.TotalCarbon(), liveRes.TotalCost(), liveRes.TotalWaiting(), liveRes.JobCount()},
	} {
		want := &struct {
			carbon, cost float64
			wait         simtime.Duration
			n            int
		}{plain.TotalCarbon(), plain.TotalCost(), plain.TotalWaiting(), plain.JobCount()}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s RunContext diverged from Run: got %+v want %+v", name, got, want)
		}
	}
}

// countdownCtx is a live context whose Err turns context.Canceled on its
// k-th call, wherever in the run that call falls. Its Done channel never
// closes: the run paths poll Err.
type countdownCtx struct {
	context.Context
	done  chan struct{}
	calls atomic.Int64
	k     int64
}

func newCountdownCtx(k int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), done: make(chan struct{}), k: k}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCanceledDirectRunJoinsWorkers cancels a multi-shard direct run at
// every cancellation probe it makes: in the decide phase, in the schedule
// columns computed beside the sweep, in the sweep itself and in the
// accounting after it. Every such run must return an error wrapping
// context.Canceled and no result, and must leave nothing running: no
// probe after it returns, and the goroutine count back where it was.
func TestCanceledDirectRunJoinsWorkers(t *testing.T) {
	const n = 3 * directShardMin
	tr := carbon.RegionSAAU.Generate(24*40, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(9)), n, 4*simtime.Week)
	cfg := Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 40}
	for _, w := range []int32{2, 3, 4} {
		withShards(t, w)
		full := newCountdownCtx(math.MaxInt64)
		want, err := RunContext(full, cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		// RunContext's own probe, then four passes over the shards —
		// decide, schedule columns, sweep, accounting — each probing
		// once per interruptStride jobs.
		perPass := int64(0)
		for _, sh := range par.Shards(int(w), n) {
			perPass += int64((sh.Hi - sh.Lo + interruptStride - 1) / interruptStride)
		}
		sweep := int64((n + interruptStride - 1) / interruptStride)
		if got, wantCalls := full.calls.Load(), 1+3*perPass+sweep; got != wantCalls {
			t.Fatalf("%d shards: an uncanceled run probed %d times, want %d", w, got, wantCalls)
		}
		for k := int64(1); k <= full.calls.Load(); k++ {
			before := runtime.NumGoroutine()
			ctx := newCountdownCtx(k)
			res, err := RunContext(ctx, cfg, jobs)
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%d shards, canceled at probe %d: res %v, err %v; want no result and context.Canceled", w, k, res != nil, err)
			}
			returned := ctx.calls.Load()
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d shards, canceled at probe %d: %d goroutines, %d before the run", w, k, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			if after := ctx.calls.Load(); after != returned {
				t.Fatalf("%d shards, canceled at probe %d: %d probes after the run returned", w, k, after-returned)
			}
		}
		got, err := RunContext(newCountdownCtx(full.calls.Load()+1), cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: a run probed to its end differs from the first", w)
		}
	}
}
