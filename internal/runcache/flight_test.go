package runcache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newFlights[V any]() *flights[V] {
	return &flights[V]{m: make(map[[32]byte]*flight[V])}
}

// waitRefs polls until key's flight in fs has n callers waiting on it.
func waitRefs[V any](t *testing.T, fs *flights[V], key [32]byte, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs.mu.Lock()
		f := fs.m[key]
		ok := f != nil && f.refs == n
		fs.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight never had %d waiting callers", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightOf returns key's current flight in fs (nil if none).
func flightOf[V any](fs *flights[V], key [32]byte) *flight[V] {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.m[key]
}

var keyA, keyB = [32]byte{1}, [32]byte{2}

func TestFlightSharesOneComputation(t *testing.T) {
	fs := newFlights[int]()
	var calls atomic.Int64
	gate := make(chan struct{})
	work := func(context.Context) (int, Outcome, error) {
		calls.Add(1)
		<-gate
		return 42, Computed, nil
	}

	const n = 8
	var wg sync.WaitGroup
	vals := make([]int, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, outcome, err := fs.do(context.Background(), keyA, work)
			if err != nil {
				t.Errorf("do: %v", err)
			}
			vals[i], outcomes[i] = v, outcome
		}(i)
	}
	// Every caller must be waiting on the one flight before the gate opens.
	waitRefs(t, fs, keyA, n)
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("work ran %d times, want 1", calls.Load())
	}
	started := 0
	for i := 0; i < n; i++ {
		if vals[i] != 42 {
			t.Fatalf("vals[%d] = %v, want 42", i, vals[i])
		}
		switch outcomes[i] {
		case Computed:
			started++
		case Dedup:
		default:
			t.Fatalf("outcomes[%d] = %v, want computed or dedup", i, outcomes[i])
		}
	}
	if started != 1 {
		t.Fatalf("%d callers started the work, want exactly 1", started)
	}
	// The completed flight is the tier's memory entry: a later caller hits
	// it and runs nothing.
	if v, outcome, err := fs.do(context.Background(), keyA, work); v != 42 || outcome != Hit || err != nil {
		t.Fatalf("after completion: %v, %v, %v; want 42, hit, nil", v, outcome, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("work ran %d times after a hit, want 1", calls.Load())
	}
}

func TestFlightCancelsWhenAllLeave(t *testing.T) {
	fs := newFlights[int]()
	canceled := make(chan struct{})
	work := func(ctx context.Context) (int, Outcome, error) {
		<-ctx.Done()
		close(canceled)
		return 0, Computed, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, _, err := fs.do(ctx1, keyA, work)
		errs <- err
	}()
	waitRefs(t, fs, keyA, 1)
	go func() {
		_, _, err := fs.do(ctx2, keyA, work)
		errs <- err
	}()
	waitRefs(t, fs, keyA, 2)

	// One caller leaving must NOT cancel the shared work.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first leaver err = %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
		t.Fatal("work canceled while a caller still waited")
	case <-time.After(50 * time.Millisecond):
	}

	// The last caller leaving cancels it and retires the flight.
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second leaver err = %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("work not canceled after every caller left")
	}
	if f := flightOf(fs, keyA); f != nil {
		t.Fatal("abandoned flight still in the map after teardown")
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	fs := newFlights[[32]byte]()
	// Each key's work waits until both have started, so keys that shared
	// a flight would never finish.
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for _, key := range [][32]byte{keyA, keyB} {
		wg.Add(1)
		go func(key [32]byte) {
			defer wg.Done()
			v, outcome, err := fs.do(context.Background(), key, func(context.Context) ([32]byte, Outcome, error) {
				started <- struct{}{}
				<-gate
				return key, Computed, nil
			})
			if err != nil || v != key || outcome != Computed {
				t.Errorf("do(%x) = %x, %v, %v", key[:1], v[:1], outcome, err)
			}
		}(key)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("distinct keys did not run independently")
		}
	}
	close(gate)
	wg.Wait()
}

// TestFlightGenerationCheck: a flight retired while its work still runs
// must not evict its successor for the same key when that work finally
// fails, and neither may a straggling leave from a dead generation.
func TestFlightGenerationCheck(t *testing.T) {
	fs := newFlights[int]()

	// Flight a: its only caller leaves, which cancels and retires it, but
	// its work returns only once release is closed.
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, _, err := fs.do(ctx, keyA, func(ctx context.Context) (int, Outcome, error) {
			<-ctx.Done()
			<-release
			return 0, Computed, ctx.Err()
		})
		errA <- err
	}()
	waitRefs(t, fs, keyA, 1)
	a := flightOf(fs, keyA)
	cancel()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("leaver err = %v, want context.Canceled", err)
	}

	// Flight b for the same key starts while a's work is still running.
	gate := make(chan struct{})
	resB := make(chan int, 1)
	go func() {
		v, _, err := fs.do(context.Background(), keyA, func(context.Context) (int, Outcome, error) {
			<-gate
			return 2, Computed, nil
		})
		if err != nil {
			t.Error(err)
		}
		resB <- v
	}()
	waitRefs(t, fs, keyA, 1)
	b := flightOf(fs, keyA)
	if b == a {
		t.Fatal("retired flight still registered")
	}

	close(release) // a's work fails now, after b replaced it
	<-a.done
	fs.leave(keyA, &flight[int]{refs: 1, cancel: func() {}, done: make(chan struct{})})
	if flightOf(fs, keyA) != b {
		t.Fatal("a dead generation's teardown evicted its live successor")
	}
	close(gate)
	if v := <-resB; v != 2 {
		t.Fatalf("successor returned %d, want 2", v)
	}
}

// TestFlightPanicBecomesError: a panic in the work reaches every caller as
// the flight's error instead of ending the process, and like any error it
// is not cached.
func TestFlightPanicBecomesError(t *testing.T) {
	fs := newFlights[int]()
	var calls atomic.Int64
	work := func(context.Context) (int, Outcome, error) {
		calls.Add(1)
		panic("kaboom")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := fs.do(context.Background(), keyA, work); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("call %d: err = %v, want the panic as an error", i, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("work ran %d times, want 2 (a panicked flight is not cached)", calls.Load())
	}
}
