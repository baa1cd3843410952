package runcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
	// unread marks an entry that no work produced (insert): the first
	// caller to find it is served outcome instead of Hit.
	unread bool
}

// flights is one tier's single-flight map. A flight whose work succeeded
// stays in the map as the tier's memory entry until the memory budget
// evicts it; a failed or abandoned one is retired, so errors are never
// cached.
type flights[V any] struct {
	mu sync.Mutex // guards m and every flight's refs, cancel and unread
	m  map[[32]byte]*flight[V]

	// mem, when set, is charged size(val) for each completed entry and
	// evicts the oldest entries beyond its budget.
	mem  *memory
	size func(V) int64
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
		outcome = Hit
		if f.unread {
			f.unread = false
			outcome = f.outcome
		}
		fs.mu.Unlock()
		return f.val, outcome, nil
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
// containment around figure cells) instead of ending the process. A kept
// entry is charged (so maybe evicted) outside fs.mu, which eviction takes,
// and before its waiters wake, so do returns to a billed budget.
func (fs *flights[V]) run(ctx context.Context, key [32]byte, f *flight[V], work func(context.Context) (V, Outcome, error)) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("runcache: computation panicked: %v", p)
		}
		fs.mu.Lock()
		if f.err != nil {
			fs.retire(key, f)
		}
		kept := fs.m[key] == f
		cancel := f.cancel
		f.cancel = nil
		fs.mu.Unlock()
		cancel()
		if kept {
			fs.charge(key, f)
		}
		close(f.done)
	}()
	f.val, f.outcome, f.err = work(ctx)
}

// completed returns key's completed entry, if any, without serving it to
// anyone: no outcome is consumed and no running flight is waited on.
func (fs *flights[V]) completed(key [32]byte) (V, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.m[key]; f != nil && f.cancel == nil {
		return f.val, true
	}
	var zero V
	return zero, false
}

// insert publishes val as key's completed entry, unless key already has a
// flight, running or completed, which then keeps the key. The first
// caller to find the entry is served outcome, later ones Hit.
func (fs *flights[V]) insert(key [32]byte, val V, outcome Outcome) bool {
	fs.mu.Lock()
	if fs.m[key] != nil {
		fs.mu.Unlock()
		return false
	}
	f := &flight[V]{val: val, outcome: outcome, unread: true}
	fs.m[key] = f
	fs.mu.Unlock()
	fs.charge(key, f)
	return true
}

// charge bills a completed entry to the memory budget. Eviction retires
// exactly this flight, generation-checked like any retirement.
func (fs *flights[V]) charge(key [32]byte, f *flight[V]) {
	if fs.mem == nil {
		return
	}
	fs.mem.charge(fs.size(f.val), func() {
		fs.mu.Lock()
		fs.retire(key, f)
		fs.mu.Unlock()
	})
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

// memory is the one byte budget the completed entries of both tiers
// share. Entries are charged as they complete and evicted oldest-charged
// first once the total exceeds maxBytes. A running flight is not charged,
// so it is never evicted, and an evicted value stays valid for whoever
// already holds it.
type memory struct {
	mu        sync.Mutex // guards maxBytes, bytes, fifo and evictions
	maxBytes  int64
	bytes     int64
	fifo      []charged // oldest first
	evictions int64

	hits, misses, puts atomic.Int64 // the shard protocol's traffic (remote.go)
}

// charged is one completed entry's bill and the way to evict it.
type charged struct {
	bytes int64
	evict func()
}

func (m *memory) charge(n int64, evict func()) {
	m.mu.Lock()
	m.fifo = append(m.fifo, charged{n, evict})
	m.bytes += n
	var victims []func()
	for m.bytes > m.maxBytes {
		victims = append(victims, m.fifo[0].evict)
		m.bytes -= m.fifo[0].bytes
		m.fifo[0] = charged{} // the slice's prefix must not pin the entry
		m.fifo = m.fifo[1:]
		m.evictions++
	}
	m.mu.Unlock()
	// Evicting takes the tier's lock, never held while m.mu is.
	for _, evict := range victims {
		evict()
	}
}
