package main

import (
	"math"
	"sort"
	"time"
)

// samples holds one operation class's timings. A failed operation is
// stored as +Inf, so every percentile counts it as missing any latency
// limit.
type samples struct {
	vals []float64
}

func (s *samples) add(v float64) { s.vals = append(s.vals, v) }

func (s *samples) fail() { s.vals = append(s.vals, math.Inf(1)) }

func (s *samples) n() int { return len(s.vals) }

// scaled returns a copy of s with every value multiplied by f.
func (s *samples) scaled(f float64) *samples {
	out := &samples{vals: make([]float64, len(s.vals))}
	for i, v := range s.vals {
		out.vals[i] = v * f
	}
	return out
}

func (s *samples) sorted() []float64 {
	xs := append([]float64(nil), s.vals...)
	sort.Float64s(xs)
	return xs
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func (s *samples) median() float64 { return median(s.vals) }

// tailCap caps the reported tail percentile. Above p90 the tail of a
// request latency on a shared 2-core machine did not repeat from run to
// run (p99 spreads of 0.3–1.1 over batches of runs), so p99s are kept as
// unbounded extra metrics instead.
const tailCap = 0.90

// tail applies the reporting rule for a timing: the highest percentile,
// capped at tailCap, that still has at least ten samples beyond it. It returns
// the value and the percentile as a fraction. Below twenty samples that
// percentile would not exceed the median, so the median is returned with
// level 0.5.
func (s *samples) tail() (value, level float64) {
	xs := s.sorted()
	n := len(xs)
	if n < 20 {
		return median(xs), 0.5
	}
	level = math.Min(tailCap, float64(n-10)/float64(n))
	return xs[nearestRank(n, level)], level
}

// percentile is the nearest-rank percentile p in (0, 1].
func (s *samples) percentile(p float64) float64 {
	xs := s.sorted()
	if len(xs) == 0 {
		return 0
	}
	return xs[nearestRank(len(xs), p)]
}

// nearestRank returns the 0-based index of the p-th nearest-rank
// percentile of n sorted values: ceil(p·n) − 1, clamped to the slice. The
// samples beyond it number n − ceil(p·n).
func nearestRank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points that split vals into four equal
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(vals, n=4), so spreads computed here match the
// ones an outside check computes from the same values.
func quartiles(vals []float64) [3]float64 {
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	ld := len(xs)
	var q [3]float64
	switch ld {
	case 0:
		return q
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 {
		return 0
	}
	q := quartiles(vals)
	return (q[2] - q[0]) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// record counts one timed operation: its time in milliseconds when it
// succeeded, a failure otherwise.
func record(r *report, s *samples, d time.Duration, err error) {
	r.op(err)
	if err != nil {
		s.fail()
		return
	}
	s.add(ms(d))
}
