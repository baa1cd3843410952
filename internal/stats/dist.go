package stats

import (
	"math"
	"math/rand"
)

// Distribution draws float64 samples from some law. Implementations take
// randomness from the *rand.Rand supplied at construction so that trace
// generation is reproducible.
type Distribution interface {
	// Sample draws one value.
	Sample() float64
	// Mean returns the distribution's theoretical mean (after any
	// truncation an implementation applies, implementations may return
	// the untruncated mean as an approximation; see each type).
	Mean() float64
}

// Exponential samples Exp(1/mean).
type Exponential struct {
	rng  *rand.Rand
	mean float64
}

// NewExponential returns an exponential distribution with the given mean.
// It panics on a non-positive mean.
func NewExponential(rng *rand.Rand, mean float64) *Exponential {
	if mean <= 0 {
		panic("stats: exponential mean must be positive")
	}
	return &Exponential{rng: rng, mean: mean}
}

// Sample draws one exponential variate.
func (e *Exponential) Sample() float64 { return e.rng.ExpFloat64() * e.mean }

// Mean returns the configured mean.
func (e *Exponential) Mean() float64 { return e.mean }

// LogNormal samples exp(N(mu, sigma²)), optionally truncated to
// [Min, Max] by resampling (with a deterministic clamp fallback after 64
// rejected draws, so pathological configurations cannot loop forever).
type LogNormal struct {
	rng      *rand.Rand
	Mu       float64
	Sigma    float64
	Min, Max float64 // 0 values mean "no bound"
}

// NewLogNormal returns an untruncated log-normal distribution.
func NewLogNormal(rng *rand.Rand, mu, sigma float64) *LogNormal {
	if sigma < 0 {
		panic("stats: lognormal sigma must be non-negative")
	}
	return &LogNormal{rng: rng, Mu: mu, Sigma: sigma}
}

// NewTruncLogNormal returns a log-normal distribution truncated to
// [min, max] (either may be 0 for unbounded).
func NewTruncLogNormal(rng *rand.Rand, mu, sigma, min, max float64) *LogNormal {
	d := NewLogNormal(rng, mu, sigma)
	d.Min, d.Max = min, max
	return d
}

// Sample draws one variate, honouring the truncation bounds.
func (l *LogNormal) Sample() float64 {
	for i := 0; i < 64; i++ {
		x := math.Exp(l.Mu + l.Sigma*l.rng.NormFloat64())
		if l.Min > 0 && x < l.Min {
			continue
		}
		if l.Max > 0 && x > l.Max {
			continue
		}
		return x
	}
	// Clamp as a last resort: keeps the generator total and deterministic.
	x := math.Exp(l.Mu)
	if l.Min > 0 && x < l.Min {
		return l.Min
	}
	if l.Max > 0 && x > l.Max {
		return l.Max
	}
	return x
}

// Mean returns the untruncated log-normal mean exp(mu + sigma²/2).
func (l *LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// BoundedPareto samples a Pareto(alpha) law truncated to [L, H]
// via inverse-CDF. It is the classic heavy-tailed job-size model.
type BoundedPareto struct {
	rng     *rand.Rand
	alpha   float64
	l, h    float64
	la, ha  float64 // L^alpha and H^alpha
	negInvA float64 // −1/alpha, the inverse CDF's exponent
}

// NewBoundedPareto returns a bounded Pareto distribution on [l, h] with
// shape alpha. It panics unless 0 < l < h and alpha > 0. The powers of
// the bounds and the inverse CDF's exponent are computed here once, so a
// draw costs one math.Pow.
func NewBoundedPareto(rng *rand.Rand, alpha, l, h float64) *BoundedPareto {
	if l <= 0 || h <= l || alpha <= 0 {
		panic("stats: bounded pareto requires 0 < L < H and alpha > 0")
	}
	return &BoundedPareto{
		rng: rng, alpha: alpha, l: l, h: h,
		la: math.Pow(l, alpha), ha: math.Pow(h, alpha), negInvA: -1 / alpha,
	}
}

// Sample draws one variate via inverse transform sampling.
func (p *BoundedPareto) Sample() float64 {
	u := p.rng.Float64()
	la, ha := p.la, p.ha
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), p.negInvA)
	if x < p.l {
		x = p.l
	}
	if x > p.h {
		x = p.h
	}
	return x
}

// Mean returns the theoretical bounded-Pareto mean.
func (p *BoundedPareto) Mean() float64 {
	a := p.alpha
	if a == 1 {
		return p.l * p.h / (p.h - p.l) * math.Log(p.h/p.l)
	}
	la, ha := p.la, p.ha
	return la / (1 - la/ha) * (a / (a - 1)) * (1/math.Pow(p.l, a-1) - 1/math.Pow(p.h, a-1))
}

// Mixture draws from one of several component distributions with the given
// weights.
type Mixture struct {
	rng        *rand.Rand
	components []Distribution
	cumWeights []float64
}

// NewMixture builds a mixture; weights need not sum to 1 (they are
// normalized). It panics on length mismatch, empty input, or a
// non-positive total weight.
func NewMixture(rng *rand.Rand, components []Distribution, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("stats: mixture needs matching non-empty components and weights")
	}
	cum := make([]float64, len(weights))
	var run float64
	for i, w := range weights {
		if w < 0 {
			panic("stats: mixture weights must be non-negative")
		}
		run += w
		cum[i] = run
	}
	if run <= 0 {
		panic("stats: mixture total weight must be positive")
	}
	for i := range cum {
		cum[i] /= run
	}
	return &Mixture{rng: rng, components: components, cumWeights: cum}
}

// Sample picks a component by weight and samples it.
func (m *Mixture) Sample() float64 {
	u := m.rng.Float64()
	for i, c := range m.cumWeights {
		if u <= c {
			return m.components[i].Sample()
		}
	}
	return m.components[len(m.components)-1].Sample()
}

// Mean returns the weighted average of component means.
func (m *Mixture) Mean() float64 {
	var mean, prev float64
	for i, comp := range m.components {
		w := m.cumWeights[i] - prev
		prev = m.cumWeights[i]
		mean += w * comp.Mean()
	}
	return mean
}

// Constant is a degenerate distribution that always returns the same value;
// handy in tests and mixtures.
type Constant float64

// Sample returns the constant.
func (c Constant) Sample() float64 { return float64(c) }

// Mean returns the constant.
func (c Constant) Mean() float64 { return float64(c) }

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to weights. It panics on empty or non-positive-total
// weights.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("stats: WeightedChoice needs positive total weight")
	}
	u := rng.Float64() * total
	var run float64
	for i, w := range weights {
		run += w
		if u <= run {
			return i
		}
	}
	return len(weights) - 1
}
