package simtime

import (
	"cmp"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestTimeOrder pins the sort trace normalization and the direct path's
// sweep are built on: a stable ascending order, on the one-pass counting
// sort of dense keys and the multi-pass radix sort of sparse ones alike,
// equal to a stable comparison sort.
func TestTimeOrder(t *testing.T) {
	keys := []Time{50, 10, 50, 10, 0, 99, 50, 10}
	want := []int32{4, 1, 3, 7, 0, 2, 6, 5}
	if got := Order(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("Order(%v) = %v, want %v", keys, got, want)
	}
	if got := Order(nil); len(got) != 0 {
		t.Errorf("Order(nil) = %v", got)
	}
	if got := Order([]Time{7}); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("single-key order = %v", got)
	}

	// Random keys over spans from 2^10 (one counting pass when n > 128)
	// to 2^62 (multi-pass), half of the trials drawing from a few
	// distinct values so ties are common, and some based below zero. One
	// bucket buffer serves every trial, as the replay scratch does.
	rnd := rand.New(rand.NewSource(9))
	var cnt []int32
	for trial := 0; trial < 300; trial++ {
		n := 2 + rnd.Intn(600)
		span := int64(1) << (10 + rnd.Intn(53))
		base := Time(0)
		if trial%5 == 0 {
			base = -Time(span / 2)
		}
		pool := make([]Time, n)
		if trial%2 == 1 {
			pool = pool[:1+rnd.Intn(8)]
		}
		for i := range pool {
			pool[i] = base + Time(rnd.Int63n(span))
		}
		keys := make([]Time, n)
		for i := range keys {
			keys[i] = pool[rnd.Intn(len(pool))]
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
		if got := OrderInto(make([]int32, n), &cnt, keys); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, span 2^%d): radix order differs from a stable sort",
				trial, n, bits.Len64(uint64(span))-1)
		}
	}
}
