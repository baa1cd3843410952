package carbon

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"

	"github.com/carbonsched/gaia/internal/simtime"
)

// Service is the Carbon Information Service (CIS) interface consumed by
// schedulers: real-time intensity plus forecasts over a future window.
// The paper assumes perfect forecasts (citing CarbonCast's accuracy);
// PerfectService provides that, and NoisyService models forecast error for
// sensitivity studies.
//
// A service that can name its forecasts also has a Fingerprint() [32]byte
// method: equal fingerprints promise bit-identical answers to every query,
// so the simulation cache may key on it. The services in this repository
// all have one; a CIS without it is opaque and is never cached.
type Service interface {
	// Intensity returns the current carbon intensity at t in g/kWh.
	Intensity(t simtime.Time) float64
	// ForecastIntegral returns the time-integral of CI over iv in
	// (g/kWh)·hours as forecast at time asOf (asOf <= iv.Start for a
	// scheduler asking about the future). A perfect CIS returns the
	// realized integral; real forecasters may only consult data up to
	// asOf.
	ForecastIntegral(asOf simtime.Time, iv simtime.Interval) float64
	// Region returns the grid region label.
	Region() string
}

// PerfectService is a CIS with perfect knowledge of the future: forecasts
// are the realized trace values.
type PerfectService struct {
	trace *Trace
}

// NewPerfectService wraps a trace as a perfect-knowledge CIS.
func NewPerfectService(tr *Trace) *PerfectService { return &PerfectService{trace: tr} }

// Intensity returns the realized CI at t.
func (s *PerfectService) Intensity(t simtime.Time) float64 { return s.trace.At(t) }

// ForecastIntegral returns the realized integral over iv regardless of
// asOf: perfect knowledge.
func (s *PerfectService) ForecastIntegral(_ simtime.Time, iv simtime.Interval) float64 {
	return s.trace.Integral(iv)
}

// Region returns the underlying trace's region.
func (s *PerfectService) Region() string { return s.trace.Region() }

// Trace exposes the underlying trace (accounting uses realized values).
func (s *PerfectService) Trace() *Trace { return s.trace }

// Fingerprint identifies the service's forecasts. A perfect forecast is
// the trace itself, so this is the trace's fingerprint.
func (s *PerfectService) Fingerprint() [32]byte { return s.trace.Fingerprint() }

// ServiceFingerprint hashes the recipe of a service whose forecasts are a
// pure function of a trace and a few parameters: a domain tag naming the
// kind of service, the version of its forecast generator, the trace's
// fingerprint, and each parameter's exact bits. Bump version whenever the
// same recipe would start producing different forecasts, so cache entries
// keyed by the old generator can never match.
func ServiceFingerprint(kind string, version uint64, tr *Trace, params ...uint64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(kind)))
	h.Write([]byte(kind))
	u64(version)
	tfp := tr.Fingerprint()
	h.Write(tfp[:])
	u64(uint64(len(params)))
	for _, p := range params {
		u64(p)
	}
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// NoisyService perturbs forecasts with multiplicative noise whose standard
// deviation grows linearly with lead time, while Intensity (the "now"
// reading) stays exact. It models an imperfect CIS such as a day-ahead
// forecast feed.
type NoisyService struct {
	trace *Trace
	// errPerDay is the relative forecast error accrued per day of lead
	// time (e.g. 0.05 = 5 %/day).
	errPerDay float64
	seed      int64     // draws noise; kept so Fingerprint can name it
	noise     []float64 // per-slot frozen noise draws, pre-generated
}

// noisyGenerator versions how NewNoisyService turns (trace, seed) into
// noise draws and ForecastIntegral turns them into forecasts. Bump it
// with any change to either.
const noisyGenerator = 1

// NewNoisyService wraps tr with multiplicative forecast noise seeded by
// seed. errPerDay is the relative error per day of lead time.
func NewNoisyService(tr *Trace, errPerDay float64, seed int64) *NoisyService {
	rng := rand.New(rand.NewSource(seed))
	noise := make([]float64, tr.Len())
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	return &NoisyService{trace: tr, errPerDay: errPerDay, seed: seed, noise: noise}
}

// Fingerprint identifies the service's forecasts by their recipe: the
// trace, the error rate and the seed the noise is drawn from.
func (s *NoisyService) Fingerprint() [32]byte {
	return ServiceFingerprint("gaia:cis:noisy", noisyGenerator, s.trace,
		math.Float64bits(s.errPerDay), uint64(s.seed))
}

// Intensity returns the exact current CI.
func (s *NoisyService) Intensity(t simtime.Time) float64 { return s.trace.At(t) }

// ForecastIntegral integrates the noisy per-slot forecast over iv, with
// error growing with the lead time from asOf. Noise is frozen per slot so
// repeated queries are consistent within a run.
//
// The loop keeps each slot's arithmetic — sigma, factor, overlap hours —
// in the reference operand order so hoisting the per-slot interval and
// clamp bookkeeping cannot perturb a single bit of the result.
func (s *NoisyService) ForecastIntegral(asOf simtime.Time, iv simtime.Interval) float64 {
	if iv.IsEmpty() {
		return 0
	}
	if asOf > iv.Start {
		asOf = iv.Start
	}
	first := iv.Start.HourIndex()
	last := (iv.End - 1).HourIndex()
	errPerDay := s.errPerDay
	lastIdx := len(s.noise) - 1
	var total float64
	slotStart := simtime.Time(simtime.Duration(first) * simtime.Hour)
	for i := first; i <= last; i++ {
		slotEnd := slotStart + simtime.Time(simtime.Hour)
		ovStart, ovEnd := slotStart, slotEnd
		if iv.Start > ovStart {
			ovStart = iv.Start
		}
		if iv.End < ovEnd {
			ovEnd = iv.End
		}
		lead := slotStart.Sub(asOf)
		if lead < 0 {
			lead = 0
		}
		sigma := errPerDay * lead.Days()
		idx := i
		if idx < 0 {
			idx = 0
		} else if idx > lastIdx {
			idx = lastIdx
		}
		factor := 1 + sigma*s.noise[idx]
		if factor < 0.05 {
			factor = 0.05
		}
		total += s.trace.values[idx] * factor * ovEnd.Sub(ovStart).Hours()
		slotStart = slotEnd
	}
	return total
}

// Region returns the underlying trace's region.
func (s *NoisyService) Region() string { return s.trace.Region() }

var (
	_ Service = (*PerfectService)(nil)
	_ Service = (*NoisyService)(nil)
)
