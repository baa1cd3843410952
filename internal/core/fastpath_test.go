package core

import (
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// opaqueCIS hides the concrete service type, so EnableFastPaths cannot
// recognize a perfect-knowledge CIS and every decision takes the reference
// path. It hides the service's Fingerprint too, standing in for a CIS that
// cannot name its forecasts. Forecasts are still bit-identical to the
// wrapped service.
type opaqueCIS struct{ carbon.Service }

// TestRunIdenticalWithFastPathsDefeated is the end-to-end counterpart of
// the policy-level differential tests: a full simulation answering every
// decision from the oracle tables must produce results DeepEqual to one
// forced onto the reference path.
func TestRunIdenticalWithFastPathsDefeated(t *testing.T) {
	rng := newRand(3)
	values := make([]float64, 24*10)
	for i := range values {
		values[i] = 30 + 700*rng.Float64()
	}
	tr := carbon.MustTrace("wiring", values)
	jobs := workload.AlibabaPAI().GenerateByCount(newRand(17), 300, 9*simtime.Day)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"carbontime-res-first", Config{
			Policy: policy.CarbonTime{}, Carbon: tr,
			Reserved: 30, WorkConserving: true,
			Pricing: testPricing, Power: testPower,
			RetainJobs: true,
		}},
		{"lowestwindow-spot", Config{
			Policy: policy.LowestWindow{}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: 11,
			Pricing: testPricing, Power: testPower,
			RetainJobs: true,
		}},
		{"lowestslot", Config{
			Policy: policy.LowestSlot{}, Carbon: tr,
			Pricing: testPricing, Power: testPower,
			RetainJobs: true,
		}},
		{"waitawhile", Config{
			Policy: policy.WaitAwhile{}, Carbon: tr,
			Reserved: 20,
			Pricing:  testPricing, Power: testPower,
			RetainJobs: true,
		}},
		{"ecovisor", Config{
			Policy: policy.Ecovisor{}, Carbon: tr,
			Pricing: testPricing, Power: testPower,
			RetainJobs: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := Run(tc.cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			ref := tc.cfg
			ref.CIS = opaqueCIS{carbon.NewPerfectService(tr)}
			slow, err := Run(ref, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("results diverge between oracle and reference paths:\n fast = %+v\n ref  = %+v", fast, slow)
			}
		})
	}
}
