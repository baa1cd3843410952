package main

import (
	"math"
	"testing"
)

func seq(n int) *samples {
	s := &samples{}
	for i := 1; i <= n; i++ {
		s.add(float64(i))
	}
	return s
}

// The tail is the highest percentile, capped at p90, with at least ten
// samples beyond it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		value     float64
		level     float64
		beyondMin int
	}{
		{n: 100, value: 90, level: 0.90, beyondMin: 10},
		{n: 50, value: 40, level: 0.80, beyondMin: 10},
		{n: 1000, value: 900, level: 0.90, beyondMin: 10},
		{n: 5000, value: 4500, level: 0.90, beyondMin: 50},
	} {
		v, level := seq(tc.n).tail()
		if v != tc.value || math.Abs(level-tc.level) > 1e-12 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, 100*level, tc.value, 100*tc.level)
		}
		if beyond := tc.n - int(v); beyond < tc.beyondMin {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
}

// Below twenty samples no percentile above the median has ten beyond it.
func TestTailFallsBackToMedian(t *testing.T) {
	v, level := seq(19).tail()
	if v != 10 || level != 0.5 {
		t.Fatalf("tail of 19 samples = %v at %v, want the median 10 at 0.5", v, level)
	}
}

// A failed operation counts as +Inf: it can push a percentile past any
// latency limit, but not the median of a mostly healthy set.
func TestFailuresCountAsInfinite(t *testing.T) {
	s := seq(99)
	s.fail()
	if got := s.percentile(1); !math.IsInf(got, 1) {
		t.Fatalf("max with a failure = %v, want +Inf", got)
	}
	if got := s.median(); got != 50.5 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if s.n() != 100 {
		t.Fatalf("n=%d, want 100", s.n())
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// function the spread criterion is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 7}, [3]float64{7, 7, 7}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
