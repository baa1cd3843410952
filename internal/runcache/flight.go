package runcache

import (
	"context"
	"fmt"
	"sync"
)

// flight is one computation of one key — a cell's accumulator or a
// decision plan — shared by every caller that asks for the key while it
// runs.
type flight[V any] struct {
	refs int // callers waiting on the unfinished work
	// cancel stops the work; nil once the work has returned, so a
	// completed entry keeps no caller's context alive.
	cancel  context.CancelFunc
	done    chan struct{} // closed once val, outcome and err are set
	val     V
	outcome Outcome // how the work served the caller that started it
	err     error
}

// flights is one tier's single-flight map. A flight whose work succeeded
// stays in the map as the tier's memory entry; a failed or abandoned one
// is retired, so errors are never cached.
type flights[V any] struct {
	mu sync.Mutex // guards m and every flight's refs and cancel
	m  map[[32]byte]*flight[V]
}

// do returns work's result for key, running work at most once across
// concurrent callers. The first caller starts work in a goroutine of its
// own, on a context detached from every caller (values kept, cancellation
// dropped). Each caller then waits on its own ctx and leaves when it
// ends; only the last caller to leave unfinished work cancels it, so a
// caller that gives up never takes the result away from one still
// waiting. The Outcome is the work's own for the caller that started it,
// Dedup for one that joined a running flight and Hit for one that found
// it completed. A caller whose ctx is already done starts nothing.
func (fs *flights[V]) do(ctx context.Context, key [32]byte, work func(context.Context) (V, Outcome, error)) (V, Outcome, error) {
	var zero V
	fs.mu.Lock()
	f := fs.m[key]
	outcome := Dedup
	switch {
	case f != nil && f.cancel == nil:
		fs.mu.Unlock()
		return f.val, Hit, nil
	case f == nil:
		if err := ctx.Err(); err != nil {
			fs.mu.Unlock()
			return zero, Computed, err
		}
		wctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f = &flight[V]{cancel: cancel, done: make(chan struct{})}
		fs.m[key] = f
		outcome = Computed
		go fs.run(wctx, key, f, work)
	}
	f.refs++
	fs.mu.Unlock()

	select {
	case <-f.done:
	case <-ctx.Done():
		fs.leave(key, f)
		return zero, outcome, ctx.Err()
	}
	if outcome == Computed {
		outcome = f.outcome
	}
	return f.val, outcome, f.err
}

// run executes a flight's work and publishes its result. A panic in work
// becomes the flight's error, so it reaches every caller (and par's
// containment around figure cells) instead of ending the process.
func (fs *flights[V]) run(ctx context.Context, key [32]byte, f *flight[V], work func(context.Context) (V, Outcome, error)) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("runcache: computation panicked: %v", p)
		}
		fs.mu.Lock()
		if f.err != nil {
			fs.retire(key, f)
		}
		cancel := f.cancel
		f.cancel = nil
		close(f.done)
		fs.mu.Unlock()
		cancel()
	}()
	f.val, f.outcome, f.err = work(ctx)
}

// leave drops a caller whose ctx ended. The last one to leave unfinished
// work cancels it and retires the flight.
func (fs *flights[V]) leave(key [32]byte, f *flight[V]) {
	fs.mu.Lock()
	f.refs--
	if f.refs == 0 && f.cancel != nil {
		f.cancel()
		fs.retire(key, f)
	}
	fs.mu.Unlock()
}

// retire removes f from the map, generation-checked: a new flight for the
// same key may already have replaced it. fs.mu is held.
func (fs *flights[V]) retire(key [32]byte, f *flight[V]) {
	if fs.m[key] == f {
		delete(fs.m, key)
	}
}
