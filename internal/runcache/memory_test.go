package runcache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// liveHeap is the heap still reachable after two collections (the second
// empties sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// budgetCell is the i-th distinct cell of TestMemoryBudget: a workload of
// its own, so each cell also decides a plan of its own.
func budgetCell(n, i int) *workload.Trace {
	return workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(int64(1000+i))), n, simtime.Week)
}

// TestMemoryBudget drives distinct cells, each with its own workload and
// so its own plan, through one cache until they have been charged ten
// times its budget. What the cache keeps reachable after collection must
// stay under the budget, which holds only if each entry is charged at
// least what it keeps in memory, and an evicted cell requested again must
// come back bit-identical to core.Run.
func TestMemoryBudget(t *testing.T) {
	const budget = 1 << 20
	base, _ := fixture(t)
	base.WorkConserving = false // direct-eligible: every cell decides a plan
	for _, n := range []int{300, 30} {
		// A first pass without the cache counts the cells and builds the
		// carbon trace's oracle tables for their queue lengths, which the
		// trace keeps whatever the cache holds.
		var charged int64
		cells := 0
		for ; charged < 10*budget; cells++ {
			res, err := core.Run(base, budgetCell(n, cells))
			if err != nil {
				t.Fatal(err)
			}
			charged += resultBytes(res.Accumulator()) + int64(entryBytes+planJobBytes*n)
		}

		c := New()
		c.SetMaxBytes(budget)
		before := liveHeap()
		for i := 0; i < cells; i++ {
			if _, outcome, err := c.Run(base, budgetCell(n, i)); err != nil || outcome != Computed {
				t.Fatalf("%d jobs, cell %d: outcome %v, err %v; want computed", n, i, outcome, err)
			}
		}
		growth := liveHeap() - before
		st := c.Stats()
		t.Logf("%d jobs: %d cells charged %d B, %d entries resident, %d evicted, heap +%d B",
			n, cells, charged, st.Entries, st.Evictions, growth)
		if growth >= budget {
			t.Errorf("%d jobs per cell: heap grew %d B, budget %d B", n, growth, budget)
		}
		if st.Bytes > budget || st.Evictions == 0 {
			t.Errorf("%d jobs per cell: stats %+v, want evictions and at most %d B", n, st, budget)
		}

		// Eviction goes oldest first: the newest cell is still held.
		if _, outcome, _ := c.Run(base, budgetCell(n, cells-1)); outcome != Hit {
			t.Errorf("%d jobs: newest cell served %v, want hit", n, outcome)
		}
		jobs := budgetCell(n, 0)
		want, err := core.Run(base, jobs)
		if err != nil {
			t.Fatal(err)
		}
		got, outcome, err := c.Run(base, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != Computed {
			t.Errorf("%d jobs: evicted cell served %v, want computed", n, outcome)
		}
		sameResult(t, got, want)
	}
}

// raceCell is one cell of TestMemoryEvictionRaces with what the cache must
// serve for it.
type raceCell struct {
	cfg  core.Config
	jobs *workload.Trace
	fp   [32]byte
	want *metrics.Result
	blob []byte
}

func raceCells(t *testing.T) []raceCell {
	t.Helper()
	base, _ := fixture(t)
	base.WorkConserving = false
	var cells []raceCell
	for w := 0; w < 2; w++ {
		jobs := budgetCell(50, w)
		for reserved := 2; reserved <= 3; reserved++ { // two cells per plan
			cfg := base
			cfg.Reserved = reserved
			want, err := core.Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			fp, _ := cfg.Fingerprint(jobs)
			cells = append(cells, raceCell{cfg, jobs, fp, want, metrics.EncodeAccumulator(want.Accumulator())})
		}
	}
	return cells
}

// TestMemoryEvictionRaces runs everything that touches an entry on the
// same few keys at once: local runs that compute, join running flights or
// hit, peer PUTs and GETs, and the evictions a budget of about one cell
// forces. Every run must return its cell's result and every GET its
// cell's blob. Two interleavings are also pinned one at a time: an entry
// evicted while a reader holds its value, and a PUT on a key whose flight
// is running.
func TestMemoryEvictionRaces(t *testing.T) {
	cells := raceCells(t)
	c0 := cells[0]

	t.Run("evicted while held", func(t *testing.T) {
		c := New()
		c.SetMaxBytes(1) // every entry is evicted as it completes
		res, outcome, err := c.Run(c0.cfg, c0.jobs)
		if err != nil || outcome != Computed {
			t.Fatalf("outcome %v, err %v; want computed", outcome, err)
		}
		if st := c.Stats(); st.Entries != 0 || st.Evictions != 2 {
			t.Fatalf("stats %+v, want the result and its plan evicted", st)
		}
		sameResult(t, res, c0.want)
		if _, outcome, _ := c.Run(c0.cfg, c0.jobs); outcome != Computed {
			t.Fatalf("evicted cell served %v, want computed", outcome)
		}
	})

	t.Run("put on a running flight", func(t *testing.T) {
		c := New()
		gate := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.results.do(context.Background(), c0.fp, func(context.Context) (*metrics.Accumulator, Outcome, error) {
				<-gate
				return c0.want.Accumulator(), Computed, nil
			})
		}()
		waitRefs(t, &c.results, c0.fp, 1)
		running := flightOf(&c.results, c0.fp)
		if err := c.PutBlob(c0.fp, c0.blob); err != nil {
			t.Fatal(err)
		}
		if flightOf(&c.results, c0.fp) != running {
			t.Fatal("a PUT replaced a running flight")
		}
		if c.Blob(c0.fp) != nil {
			t.Fatal("a GET served a running flight")
		}
		close(gate)
		<-done
		if _, outcome, _ := c.Run(c0.cfg, c0.jobs); outcome != Hit {
			t.Fatalf("after the flight: outcome %v, want hit", outcome)
		}
		if st := c.Stats(); st.Puts != 0 {
			t.Fatalf("stats %+v, want the PUT dropped", st)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		c := New()
		c.SetMaxBytes(resultBytes(c0.want.Accumulator()) + int64(entryBytes+planJobBytes*c0.jobs.Len()))
		var wg sync.WaitGroup
		worker := func(seed int64, op func(raceCell) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 100; i++ {
					if err := op(cells[rng.Intn(len(cells))]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for w := int64(0); w < 4; w++ {
			worker(w, func(cell raceCell) error {
				res, outcome, err := c.Run(cell.cfg, cell.jobs)
				if err != nil {
					return err
				}
				if got := metrics.EncodeAccumulator(res.Accumulator()); !bytes.Equal(got, cell.blob) || res.String() != cell.want.String() {
					return fmt.Errorf("%v result differs from core.Run", outcome)
				}
				return nil
			})
		}
		for w := int64(10); w < 12; w++ {
			worker(w, func(cell raceCell) error { return c.PutBlob(cell.fp, cell.blob) })
		}
		for w := int64(20); w < 22; w++ {
			worker(w, func(cell raceCell) error {
				if b := c.Blob(cell.fp); b != nil && !bytes.Equal(b, cell.blob) {
					return fmt.Errorf("GET served %d bytes that are not the cell's blob", len(b))
				}
				return nil
			})
		}
		wg.Wait()
		st := c.Stats()
		t.Logf("stats %+v", st)
		if st.Evictions == 0 {
			t.Error("the budget evicted nothing")
		}
	})
}
