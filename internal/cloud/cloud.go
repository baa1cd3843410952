// Package cloud models the cloud resource market GAIA schedules against:
// purchase options (on-demand, reserved, spot) with their pricing
// structure, an instance power model for carbon accounting, the
// reserved-capacity pool, and the spot eviction process.
//
// Resources are homogeneous 1-CPU units (the paper's demand
// normalization); a k-CPU job occupies k units concurrently, possibly
// split across purchase options.
package cloud

import "fmt"

// Option is a cloud purchase option.
type Option int

// The three purchase options the paper evaluates.
const (
	// OnDemand is pay-as-you-go at full price, always available.
	OnDemand Option = iota
	// Reserved is long-term pre-paid capacity at a steep discount; the
	// full contract is paid whether or not the units are used.
	Reserved
	// Spot is deeply discounted surplus capacity that may be revoked at
	// any time.
	Spot
)

// String returns the option's conventional name.
func (o Option) String() string {
	switch o {
	case OnDemand:
		return "on-demand"
	case Reserved:
		return "reserved"
	case Spot:
		return "spot"
	default:
		return fmt.Sprintf("option(%d)", int(o))
	}
}

// Pricing is the cluster's price book, normalized per CPU unit.
type Pricing struct {
	// OnDemandHourly is the on-demand price per CPU·hour in dollars.
	OnDemandHourly float64
	// ReservedFraction is the reserved price as a fraction of on-demand
	// (the paper uses 0.40 for 3-year reservations).
	ReservedFraction float64
	// SpotFraction is the spot price as a fraction of on-demand (the
	// paper uses 0.20).
	SpotFraction float64
}

// DefaultPricing matches the paper's deployment: c7gn.medium at
// $0.0624/hour on demand, 3-year reserved at 40 % and spot at 20 % of the
// on-demand price.
func DefaultPricing() Pricing {
	return Pricing{OnDemandHourly: 0.0624, ReservedFraction: 0.40, SpotFraction: 0.20}
}

// Validate reports whether the price book is sane.
func (p Pricing) Validate() error {
	if !(p.OnDemandHourly > 0) {
		return fmt.Errorf("cloud: on-demand rate %v must be positive", p.OnDemandHourly)
	}
	if !(p.ReservedFraction > 0 && p.ReservedFraction <= 1) {
		return fmt.Errorf("cloud: reserved fraction %v must be in (0, 1]", p.ReservedFraction)
	}
	if !(p.SpotFraction > 0 && p.SpotFraction <= 1) {
		return fmt.Errorf("cloud: spot fraction %v must be in (0, 1]", p.SpotFraction)
	}
	return nil
}

// HourlyRate returns the per-CPU·hour price of an option. Note that for
// Reserved this is the amortized contract rate: reserved capacity is paid
// for every hour of the contract regardless of use (see ReservedUpfront).
func (p Pricing) HourlyRate(o Option) float64 {
	switch o {
	case Reserved:
		return p.OnDemandHourly * p.ReservedFraction
	case Spot:
		return p.OnDemandHourly * p.SpotFraction
	default:
		return p.OnDemandHourly
	}
}

// ReservedUpfront returns the pre-paid cost of holding n reserved CPU
// units for horizonHours, independent of utilization — the term that makes
// idle reserved capacity raise the effective price per unit of work.
func (p Pricing) ReservedUpfront(n int, horizonHours float64) float64 {
	if n <= 0 || horizonHours <= 0 {
		return 0
	}
	return float64(n) * horizonHours * p.HourlyRate(Reserved)
}

// Power is the energy model used for carbon accounting.
type Power struct {
	// KWPerCPU is the active power draw per occupied CPU unit in kW.
	// Idle reserved units are powered off (paper §3) and draw nothing.
	KWPerCPU float64
}

// DefaultPower models a small cloud instance drawing 10 W per CPU unit.
// Carbon results in the paper are normalized, so the absolute value only
// scales totals.
func DefaultPower() Power { return Power{KWPerCPU: 0.010} }

// Validate reports whether the power model is sane.
func (pw Power) Validate() error {
	if !(pw.KWPerCPU > 0) {
		return fmt.Errorf("cloud: power draw %v must be positive", pw.KWPerCPU)
	}
	return nil
}

// Carbon converts a CI integral ((g/kWh)·hours, from carbon.Trace.Integral)
// and a CPU count into grams of CO2eq.
func (pw Power) Carbon(ciIntegral float64, cpus int) float64 {
	return ciIntegral * pw.KWPerCPU * float64(cpus)
}

// Energy returns the energy in kWh drawn by cpus units over hours.
func (pw Power) Energy(cpus int, hours float64) float64 {
	return pw.KWPerCPU * float64(cpus) * hours
}
