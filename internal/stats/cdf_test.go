package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x, want float64
	}{
		{0, 0},
		{1, 0.25},
		{1.5, 0.25},
		{2, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 {
		t.Error("empty ECDF should return 0")
	}
	if _, err := e.Quantile(0.5); err != ErrEmpty {
		t.Error("empty quantile should return ErrEmpty")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	q, err := e.Quantile(0.5)
	if err != nil || q != 30 {
		t.Errorf("Quantile(0.5) = %v, %v", q, err)
	}
	q, _ = e.Quantile(-1) // clamps
	if q != 10 {
		t.Errorf("Quantile(-1) = %v", q)
	}
	q, _ = e.Quantile(2) // clamps
	if q != 50 {
		t.Errorf("Quantile(2) = %v", q)
	}
}

// Property: ECDF is monotone non-decreasing and within [0, 1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []int16, a, b int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		e := NewECDF(xs)
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		fx, fy := e.At(x), e.At(y)
		return fx >= 0 && fy <= 1 && fx <= fy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedCDF(t *testing.T) {
	// Values 1..4 with weights equal to values: total 10.
	c := NewWeightedCDF([]float64{3, 1, 4, 2}, []float64{3, 1, 4, 2})
	if c.Total() != 10 {
		t.Errorf("Total = %v", c.Total())
	}
	tests := []struct {
		x, want float64
	}{
		{0.5, 0},
		{1, 0.1},
		{2, 0.3},
		{3, 0.6},
		{4, 1},
		{9, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestWeightedCDFZeroTotal(t *testing.T) {
	c := NewWeightedCDF([]float64{1, 2}, []float64{0, 0})
	if c.At(2) != 0 {
		t.Error("zero-weight CDF should return 0")
	}
}

func TestWeightedCDFPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWeightedCDF([]float64{1}, []float64{1, 2})
}

// Property: weighted CDF is monotone and ends at 1 for positive totals.
func TestWeightedCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		ws := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v % 50)
			ws[i] = float64(v%7) + 1
		}
		c := NewWeightedCDF(vals, ws)
		prev := -1.0
		for x := -1.0; x <= 51; x++ {
			fx := c.At(x)
			if fx < prev-1e-12 || fx < 0 || fx > 1+1e-12 {
				return false
			}
			prev = fx
		}
		return math.Abs(c.At(50)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
