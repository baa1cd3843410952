package carbon

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

// naiveSlideMin is the brute-force leftmost argmin slideMinIndex must
// reproduce.
func naiveSlideMin(base []float64, k int) []int32 {
	out := make([]int32, len(base))
	for i := range base {
		hi := i + k
		if hi > len(base) {
			hi = len(base)
		}
		best := i
		for j := i + 1; j < hi; j++ {
			if base[j] < base[best] {
				best = j
			}
		}
		out[i] = int32(best)
	}
	return out
}

func TestSlideMinIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 48, 200} {
		for _, k := range []int{1, 2, 5, 24, n + 3} {
			// Quantized values force ties: the deque must keep the
			// leftmost index, like a strict-< scan.
			base := make([]float64, n)
			for i := range base {
				base[i] = float64(rng.Intn(4)) * 100
			}
			got := slideMinIndex(base, k)
			want := naiveSlideMin(base, k)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: argmin[%d] = %d, want %d", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQueueTablesMatchDirectQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 72)
	for i := range values {
		values[i] = 50 + 400*rng.Float64()
	}
	tr := MustTrace("test", values)
	w := 6*simtime.Hour + 30*simtime.Minute
	l := 95 * simtime.Minute
	qt := tr.Oracle().Queue(w, l)

	if qt.MaxWait() != w || qt.EstLength() != l {
		t.Fatalf("tables report (%v, %v), want (%v, %v)", qt.MaxWait(), qt.EstLength(), w, l)
	}
	// Every table entry — including the padding past the horizon — must
	// be the exact float a direct query returns.
	for j := 0; j < tr.Len()+int(w/simtime.Hour)+2; j++ {
		start := simtime.Time(simtime.Duration(j) * simtime.Hour)
		if got, want := qt.vals[j], tr.Value(j); got != want {
			t.Fatalf("vals[%d] = %v, want %v", j, got, want)
		}
		iv := simtime.Interval{Start: start, End: start.Add(l)}
		if got, want := qt.WindowSum(j), tr.Integral(iv); got != want {
			t.Fatalf("winSums[%d] = %v, want %v", j, got, want)
		}
	}
	// Boundary counts across arrival minutes: k hourly boundaries lie in
	// (now, now+w].
	for _, now := range []simtime.Time{0, 1, 29, 30, 59, 60, 61, 4321} {
		k, ok := qt.Boundaries(now)
		if !ok {
			t.Fatalf("Boundaries(%v) not ok", now)
		}
		want := 0
		for b := simtime.Time((now.HourIndex() + 1) * int(simtime.Hour)); b <= now.Add(w); b = b.Add(simtime.Hour) {
			want++
		}
		if k != want {
			t.Fatalf("Boundaries(%v) = %d, want %d", now, k, want)
		}
		// The argmin lookups agree with a direct strict-< scan.
		i0 := now.HourIndex()
		if slot, ok := qt.LowestSlot(i0, k); ok {
			best := i0
			for j := i0 + 1; j <= i0+k; j++ {
				if tr.Value(j) < tr.Value(best) {
					best = j
				}
			}
			if slot != best {
				t.Fatalf("LowestSlot(%d, %d) = %d, want %d", i0, k, slot, best)
			}
		} else {
			t.Fatalf("LowestSlot(%d, %d) not covered", i0, k)
		}
	}
}

func TestOracleIsCachedPerTraceAndKey(t *testing.T) {
	tr := MustTrace("test", []float64{100, 200, 300})
	if tr.Oracle() != tr.Oracle() {
		t.Fatal("Oracle() returned distinct caches for one trace")
	}
	o := tr.Oracle()
	a := o.Queue(6*simtime.Hour, simtime.Hour)
	if b := o.Queue(6*simtime.Hour, simtime.Hour); a != b {
		t.Fatal("same (W, L) built tables twice")
	}
	if c := o.Queue(24*simtime.Hour, simtime.Hour); c == a {
		t.Fatal("distinct W shared tables")
	}
	if o.Queue(-simtime.Hour, simtime.Hour) != nil {
		t.Fatal("negative wait should have no tables")
	}
	if o.Queue(simtime.Hour, 0) != nil {
		t.Fatal("non-positive estimate should have no tables")
	}
}

// TestOracleMemoBounded: distinct (W, L) keys past maxQueueTables clear
// the memo instead of growing it, tables handed out before a clear stay
// intact, and a key asked for again after a clear is rebuilt identical.
func TestOracleMemoBounded(t *testing.T) {
	tr := MustTrace("test", []float64{300, 200, 300, 100, 200})
	o := tr.Oracle()
	first := o.Queue(simtime.Hour, simtime.Minute)
	for i := 1; i <= 10*maxQueueTables; i++ {
		o.Queue(simtime.Hour, simtime.Duration(i+1)*simtime.Minute)
		if n := len(o.queues); n > maxQueueTables {
			t.Fatalf("after %d distinct keys the memo holds %d table sets, want at most %d", i+1, n, maxQueueTables)
		}
	}
	if first.EstLength() != simtime.Minute || first.WindowSum(0) != tr.Integral(simtime.Interval{Start: 0, End: 1}) {
		t.Fatal("tables handed out before a clear changed")
	}
	again := o.Queue(simtime.Hour, simtime.Minute)
	if again == first {
		t.Fatal("first key survived ten clears")
	}
	if !slices.Equal(again.vals, first.vals) || !slices.Equal(again.winSums, first.winSums) {
		t.Fatal("rebuilt tables differ from the originals")
	}
}

// TestOracleMemoClearRaces has goroutines ask for more distinct keys than
// the memo holds, so clears race lookups, builds and readers of tables
// built before a clear; under -race it checks the memo's locking, and
// every caller must get tables for the key it asked for.
func TestOracleMemoClearRaces(t *testing.T) {
	tr := MustTrace("test", []float64{300, 200, 300, 100, 200, 250})
	o := tr.Oracle()
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*maxQueueTables; i++ {
				w := simtime.Duration(i%3) * simtime.Hour
				l := simtime.Duration(1+(i*goroutines+g)%(2*maxQueueTables)) * simtime.Minute
				tab := o.Queue(w, l)
				if tab.MaxWait() != w || tab.EstLength() != l {
					errs <- "tables for the wrong key"
					return
				}
				if _, ok := tab.LowestSlot(0, tab.k0); !ok {
					errs <- "tables do not cover slot 0"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestOracleConcurrentAccess exercises the lazy init, the (W, L) cache,
// the slot ranking and the argmin tables from many goroutines, which all
// touch LowestSlot and LowestWindow for the first time at once; `go test
// -race` verifies the synchronization.
func TestOracleConcurrentAccess(t *testing.T) {
	tr := MustTrace("test", []float64{300, 200, 300, 100, 200})
	const w = 6 * simtime.Hour
	var wg sync.WaitGroup
	tables := make([]*QueueTables, 8)
	rankings := make([]*SlotRanking, 8)
	orders := make([][]int, 8)
	argmins := make([][]int, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[g] = tr.Oracle().Queue(w, simtime.Hour)
			rankings[g] = tr.Oracle().Ranking()
			orders[g] = rankWindow(rankings[g], 0, 7)
			argmins[g] = lowestAll(tables[g])
		}()
	}
	wg.Wait()
	want := []int{3, 1, 4, 5, 6, 7, 0, 2}
	// The reference is the strict-< scan the tables replace.
	tab := tables[0]
	var wantArgmins []int
	for _, k := range []int{6, 7} {
		for i0 := 0; tab.Covers(i0, k); i0++ {
			slot, win := i0, i0+1
			for j := i0; j <= i0+k; j++ {
				if tab.vals[j] < tab.vals[slot] {
					slot = j
				}
				if j > i0 && tab.WindowSum(j) < tab.WindowSum(win) {
					win = j
				}
			}
			wantArgmins = append(wantArgmins, slot, win)
		}
	}
	for g := 0; g < 8; g++ {
		if tables[g] != tables[0] || rankings[g] != rankings[0] {
			t.Fatal("concurrent callers observed distinct tables or rankings")
		}
		if !slices.Equal(orders[g], want) {
			t.Fatalf("goroutine %d ranked slots %v, want %v", g, orders[g], want)
		}
		if !slices.Equal(argmins[g], wantArgmins) {
			t.Fatalf("goroutine %d read argmins %v, want %v", g, argmins[g], wantArgmins)
		}
	}
}

// lowestAll reads LowestSlot and LowestWindow at every window position
// the tables cover, for both boundary counts of a 6-hour wait.
func lowestAll(tab *QueueTables) []int {
	var out []int
	for _, k := range []int{6, 7} {
		for i0 := 0; tab.Covers(i0, k); i0++ {
			slot, ok1 := tab.LowestSlot(i0, k)
			win, ok2 := tab.LowestWindow(i0, k)
			if !ok1 || !ok2 {
				return nil
			}
			out = append(out, slot, win)
		}
	}
	return out
}

// rankWindow lists slots [i0, iD] in key order, decoding through Slot.
func rankWindow(r *SlotRanking, i0, iD int) []int {
	keys := make([]uint64, 0, iD-i0+1)
	for j := i0; j <= iD; j++ {
		keys = append(keys, r.Key(j))
	}
	slices.Sort(keys)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = r.Slot(k)
	}
	return out
}

// TestSlotRankingMatchesStableSort pins the ranking against the order it
// replaces: for windows inside the trace, straddling its horizon and
// wholly past it, sorting the window's keys must list its slots exactly
// as a stable sort by clamped CI does, on random, tie-heavy and constant
// traces and on traces whose last value is their minimum or maximum.
func TestSlotRankingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	series := func(n int, draw func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	lastMin := series(30, func() float64 { return 100 + float64(rng.Intn(5))*50 })
	lastMin[29] = 50
	lastMax := series(30, func() float64 { return 100 + float64(rng.Intn(5))*50 })
	lastMax[29] = 400
	traces := [][]float64{
		series(50, func() float64 { return 30 + 700*rng.Float64() }),
		series(64, func() float64 { return float64(1+rng.Intn(3)) * 100 }),
		series(20, func() float64 { return 250 }),
		{123},
		lastMin,
		lastMax,
	}
	for ti, values := range traces {
		tr := MustTrace("rank", values)
		r := tr.Oracle().Ranking()
		n := tr.Len()
		for trial := 0; trial < 300; trial++ {
			i0 := rng.Intn(n + 5)
			iD := i0 + rng.Intn(2*n+3)
			want := make([]int, 0, iD-i0+1)
			for j := i0; j <= iD; j++ {
				want = append(want, j)
			}
			sort.SliceStable(want, func(a, b int) bool { return tr.Value(want[a]) < tr.Value(want[b]) })
			if got := rankWindow(r, i0, iD); !slices.Equal(got, want) {
				t.Fatalf("trace %d, window [%d, %d]: ranked %v, want %v", ti, i0, iD, got, want)
			}
		}
		for j := 0; j < 3*n; j++ {
			if got := r.Slot(r.Key(j)); got != j {
				t.Fatalf("trace %d: Slot(Key(%d)) = %d", ti, j, got)
			}
		}
	}
}
