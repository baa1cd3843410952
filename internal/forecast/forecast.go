// Package forecast implements a real carbon-intensity forecaster, so the
// paper's perfect-forecast assumption (justified there by CarbonCast's
// accuracy) can be replaced by a model that only sees past data.
//
// The model is a seasonal profile plus a decaying residual correction,
// the standard strong baseline for day-ahead grid CI:
//
//	forecast(τ | asOf) = profile(hourOfWeek(τ); trailing window before asOf)
//	                   + ρ^(τ−asOf) · (actual(asOf) − profile(asOf))
//
// where the profile is the mean CI at the same hour-of-week over the
// trailing training window, and the residual term propagates the
// currently observed deviation with persistence ρ per hour.
package forecast

import (
	"fmt"
	"math"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
)

const hoursPerWeek = 24 * 7

// SeasonalNaive is a trailing-window seasonal forecaster over a realized
// trace. It implements carbon.Service: Intensity reads the live value and
// ForecastIntegral uses only data at or before asOf.
type SeasonalNaive struct {
	trace *carbon.Trace
	// trainingDays is the trailing window the profile averages over.
	trainingDays int
	// rho is the per-hour persistence of the current residual.
	rho float64

	// occPrefix[w][k] = sum of the first k realized values at
	// hour-of-week w (occurrences in hour-index order), enabling O(1)
	// trailing-window means.
	occPrefix [hoursPerWeek][]float64
}

// NewSeasonalNaive builds the forecaster over tr. trainingDays must be at
// least 7 (one full week of seasonal coverage); rho in [0, 1).
func NewSeasonalNaive(tr *carbon.Trace, trainingDays int, rho float64) (*SeasonalNaive, error) {
	if trainingDays < 7 {
		return nil, fmt.Errorf("forecast: training window %d days must be >= 7", trainingDays)
	}
	if rho < 0 || rho >= 1 {
		return nil, fmt.Errorf("forecast: rho %v must be in [0, 1)", rho)
	}
	s := &SeasonalNaive{trace: tr, trainingDays: trainingDays, rho: rho}
	for w := 0; w < hoursPerWeek; w++ {
		n := (tr.Len()-w+hoursPerWeek-1)/hoursPerWeek + 1
		s.occPrefix[w] = make([]float64, 1, n)
	}
	for i := 0; i < tr.Len(); i++ {
		w := i % hoursPerWeek
		p := s.occPrefix[w]
		s.occPrefix[w] = append(p, p[len(p)-1]+tr.Value(i))
	}
	return s, nil
}

// modelVersion versions how NewSeasonalNaive and ForecastValue turn a
// recipe (trace, training days, rho) into forecasts. Bump it with any
// change to either.
const modelVersion = 1

// Fingerprint identifies the forecasts by their recipe: the trace the
// model trains on and forecasts from, the training window and rho. The
// simulation cache keys cells forecast by this model on it.
func (s *SeasonalNaive) Fingerprint() [32]byte {
	return carbon.ServiceFingerprint("gaia:cis:seasonal-naive", modelVersion, s.trace,
		uint64(s.trainingDays), math.Float64bits(s.rho))
}

// Region implements carbon.Service.
func (s *SeasonalNaive) Region() string { return s.trace.Region() }

// Intensity implements carbon.Service: the live reading is exact.
func (s *SeasonalNaive) Intensity(t simtime.Time) float64 { return s.trace.At(t) }

// profileAt returns the trailing-window hour-of-week mean for hour index
// h, training on hours in [h - trainingDays*24, h). It falls back to the
// current value when no history exists yet (cold start).
func (s *SeasonalNaive) profileAt(h int) float64 {
	if h <= 0 {
		return s.trace.Value(0)
	}
	w := h % hoursPerWeek
	// Occurrences of hour-of-week w strictly before h: indices w,
	// w+168, ... < min(h, len).
	end := h
	if end > s.trace.Len() {
		end = s.trace.Len()
	}
	start := h - s.trainingDays*24
	if start < 0 {
		start = 0
	}
	countBefore := func(limit int) int {
		if limit <= w {
			return 0
		}
		return (limit-w-1)/hoursPerWeek + 1
	}
	hi := countBefore(end)
	lo := countBefore(start)
	if hi <= lo {
		// No same-hour-of-week history in the window; fall back to the
		// most recent observed value.
		return s.trace.Value(end - 1)
	}
	p := s.occPrefix[w]
	return (p[hi] - p[lo]) / float64(hi-lo)
}

// ForecastValue returns the forecast CI for the slot containing τ as seen
// at asOf.
func (s *SeasonalNaive) ForecastValue(asOf, tau simtime.Time) float64 {
	hNow := asOf.HourIndex()
	hTau := tau.HourIndex()
	if hTau <= hNow {
		// The past (and the current slot) is observed, not forecast.
		return s.trace.At(tau)
	}
	prof := s.profileAt(hTau)
	residual := s.trace.At(asOf) - s.profileAt(hNow)
	lead := float64(hTau - hNow)
	v := prof + residual*math.Pow(s.rho, lead)
	if v < 0 {
		v = 0
	}
	return v
}

// ForecastIntegral implements carbon.Service: slot-by-slot integration of
// the forecast over iv as seen at asOf.
func (s *SeasonalNaive) ForecastIntegral(asOf simtime.Time, iv simtime.Interval) float64 {
	if iv.IsEmpty() {
		return 0
	}
	var total float64
	first := iv.Start.HourIndex()
	last := (iv.End - 1).HourIndex()
	for i := first; i <= last; i++ {
		slot := simtime.Interval{
			Start: simtime.Time(simtime.Duration(i) * simtime.Hour),
			End:   simtime.Time(simtime.Duration(i+1) * simtime.Hour),
		}
		ov := slot.Intersect(iv)
		total += s.ForecastValue(asOf, slot.Start) * ov.Len().Hours()
	}
	return total
}

var _ carbon.Service = (*SeasonalNaive)(nil)

// Accuracy summarizes forecast error at one lead time.
type Accuracy struct {
	LeadHours int
	MAPE      float64 // mean absolute percentage error
	RMSE      float64 // root mean squared error, g/kWh
	N         int     // evaluation points
}

// Evaluate measures forecast accuracy at the given lead times over the
// whole trace (skipping a warm-up of trainingDays so the profile is
// populated).
func (s *SeasonalNaive) Evaluate(leads []int) []Accuracy {
	out := make([]Accuracy, 0, len(leads))
	warm := s.trainingDays * 24
	for _, lead := range leads {
		var apeSum, seSum float64
		n := 0
		for h := warm; h+lead < s.trace.Len(); h++ {
			asOf := simtime.Time(simtime.Duration(h) * simtime.Hour)
			tau := simtime.Time(simtime.Duration(h+lead) * simtime.Hour)
			got := s.ForecastValue(asOf, tau)
			want := s.trace.Value(h + lead)
			if want <= 0 {
				continue
			}
			apeSum += math.Abs(got-want) / want
			seSum += (got - want) * (got - want)
			n++
		}
		acc := Accuracy{LeadHours: lead, N: n}
		if n > 0 {
			acc.MAPE = apeSum / float64(n)
			acc.RMSE = math.Sqrt(seSum / float64(n))
		}
		out = append(out, acc)
	}
	return out
}
