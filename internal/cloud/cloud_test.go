package cloud

import (
	"math"
	"testing"
)

func TestOptionString(t *testing.T) {
	if OnDemand.String() != "on-demand" || Reserved.String() != "reserved" || Spot.String() != "spot" {
		t.Error("option names broken")
	}
	if Option(9).String() != "option(9)" {
		t.Error("unknown option name broken")
	}
}

func TestPricingRates(t *testing.T) {
	p := DefaultPricing()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.HourlyRate(OnDemand) != 0.0624 {
		t.Errorf("on-demand rate = %v", p.HourlyRate(OnDemand))
	}
	if math.Abs(p.HourlyRate(Reserved)-0.0624*0.4) > 1e-12 {
		t.Errorf("reserved rate = %v", p.HourlyRate(Reserved))
	}
	if math.Abs(p.HourlyRate(Spot)-0.0624*0.2) > 1e-12 {
		t.Errorf("spot rate = %v", p.HourlyRate(Spot))
	}
}

func TestPricingValidate(t *testing.T) {
	bad := []Pricing{
		{OnDemandHourly: 0, ReservedFraction: 0.4, SpotFraction: 0.2},
		{OnDemandHourly: 1, ReservedFraction: 0, SpotFraction: 0.2},
		{OnDemandHourly: 1, ReservedFraction: 1.5, SpotFraction: 0.2},
		{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 0},
		{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 2},
		// NaN fails every comparison, so it must fail each check too.
		{OnDemandHourly: math.NaN(), ReservedFraction: 0.4, SpotFraction: 0.2},
		{OnDemandHourly: 1, ReservedFraction: math.NaN(), SpotFraction: 0.2},
		{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: math.NaN()},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestReservedUpfront(t *testing.T) {
	p := Pricing{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 0.2}
	// 5 units × 100 h × $0.40 = $200, paid regardless of use.
	if got := p.ReservedUpfront(5, 100); got != 200 {
		t.Errorf("ReservedUpfront = %v", got)
	}
	if p.ReservedUpfront(0, 100) != 0 || p.ReservedUpfront(5, 0) != 0 {
		t.Error("degenerate upfront should be 0")
	}
}

func TestPower(t *testing.T) {
	pw := DefaultPower()
	if err := pw.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Power{}).Validate() == nil {
		t.Error("zero power should fail validation")
	}
	if (Power{KWPerCPU: math.NaN()}).Validate() == nil {
		t.Error("NaN power should fail validation")
	}
	// 100 (g/kWh)·h integral × 0.01 kW × 2 CPUs = 2 g.
	if got := pw.Carbon(100, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("Carbon = %v", got)
	}
	// 3 CPUs × 2 h × 0.01 kW = 0.06 kWh.
	if got := pw.Energy(3, 2); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("Energy = %v", got)
	}
}
