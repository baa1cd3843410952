package stats

import "sort"

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), i.e. the fraction of samples not exceeding x.
// It returns 0 for an empty sample.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (q in [0, 1]) with linear interpolation.
func (e *ECDF) Quantile(q float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return percentileSorted(e.sorted, q*100), nil
}

// WeightedCDF is a CDF over (value, weight) points — used for
// "fraction of total savings contributed by jobs up to length x"
// style curves (paper Figure 9).
type WeightedCDF struct {
	values  []float64
	cumsum  []float64 // cumulative weight up to and including values[i]
	totalW  float64
	sortedV bool
}

// NewWeightedCDF builds a weighted CDF from parallel slices of values and
// non-negative weights. Inputs are copied. It panics if lengths differ.
func NewWeightedCDF(values, weights []float64) *WeightedCDF {
	if len(values) != len(weights) {
		panic("stats: NewWeightedCDF length mismatch")
	}
	type vw struct{ v, w float64 }
	pairs := make([]vw, len(values))
	for i := range values {
		pairs[i] = vw{values[i], weights[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	c := &WeightedCDF{
		values: make([]float64, len(pairs)),
		cumsum: make([]float64, len(pairs)),
	}
	var run float64
	for i, p := range pairs {
		run += p.w
		c.values[i] = p.v
		c.cumsum[i] = run
	}
	c.totalW = run
	return c
}

// Total returns the total weight.
func (c *WeightedCDF) Total() float64 { return c.totalW }

// At returns the fraction of total weight carried by values <= x.
// It returns 0 when the total weight is 0.
func (c *WeightedCDF) At(x float64) float64 {
	if c.totalW == 0 || len(c.values) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.values, x)
	for i < len(c.values) && c.values[i] == x {
		i++
	}
	if i == 0 {
		return 0
	}
	return c.cumsum[i-1] / c.totalW
}
