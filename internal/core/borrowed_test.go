package core

import (
	"testing"

	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/policy/policytest"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// TestBorrowedPlansNotRetained holds the scheduler to the borrowed-plan
// contract of policy.Decision. Each suspend-resume policy runs bare and
// through policytest.Clobbering, which overwrites every plan it returned
// once its Context decides again: plain runs and spot runs with
// evictions, retained and streaming, must encode the same accumulator
// and the same job records either way. A scheduler that kept a policy's
// plan instead of normalizing it into the job's own buffer would execute
// later windows as invalid ones (or, on a fast path, as a later job's).
func TestBorrowedPlansNotRetained(t *testing.T) {
	tr, jobs := goldenInstance()
	for _, p := range []policy.Policy{policy.WaitAwhile{}, policy.WaitAwhileEst{}, policy.Ecovisor{}} {
		for _, spot := range []bool{false, true} {
			for _, retain := range []bool{true, false} {
				cfg := baseConfig(tr, p)
				cfg.Mechanism = MechanismEngine
				cfg.Reserved = 40
				cfg.RetainJobs = retain
				check := minSegments(2)
				if spot {
					cfg.SpotMaxLen, cfg.EvictionRate, cfg.Seed = 24*simtime.Hour, 0.2, 17
					check = evictedAfterSegments(2)
				}
				want, err := Run(cfg, jobs)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Policy = policytest.Clobber(p)
				got, err := Run(cfg, jobs)
				if err != nil {
					t.Fatalf("%s (spot %v, retain %v) through Clobbering: %v", p.Name(), spot, retain, err)
				}
				if a, b := accDigest(got), accDigest(want); a != b {
					t.Errorf("%s (spot %v, retain %v): accumulator %s through Clobbering, %s bare", p.Name(), spot, retain, a, b)
				}
				if !retain {
					continue
				}
				if err := check(want); err != nil {
					t.Fatalf("%s (spot %v): fixture no longer covers its path: %v", p.Name(), spot, err)
				}
				if a, b := jobRecordsDigest(got.Jobs), jobRecordsDigest(want.Jobs); a != b {
					t.Errorf("%s (spot %v): job records %s through Clobbering, %s bare", p.Name(), spot, a, b)
				}
			}
		}
	}
}

// TestBorrowedGrantsNotRetained holds the scheduler to the borrowed-grants
// contract of policy.ElasticAllocator. The x09 mix and a diamond DAG with
// scalable side branches run under Greedy-Marginal bare and through
// policytest.ClobberingAllocator, which overwrites every grant it returned
// once its Context allocates again: retained and streaming runs must
// encode the same accumulator and the same job records either way. A
// scheduler that read a tick's grants after the next Allocate would scale
// jobs the allocator never scaled.
func TestBorrowedGrantsNotRetained(t *testing.T) {
	tr, jobs := goldenInstance()
	scalable := workload.ElasticSpec{MinReplicas: 1, MaxReplicas: 4, Curve: workload.AmdahlCurve(0.9, 4)}
	for _, c := range []struct {
		name string
		pol  policy.Policy
		et   *workload.ElasticTrace
	}{
		{"x09-mix", policy.CarbonTime{}, x09Mix("borrowed-x09", jobs)},
		{"diamonds", policy.CriticalPathShift{}, diamondDAG(300, scalable)},
	} {
		for _, retain := range []bool{true, false} {
			cfg := baseConfig(tr, c.pol)
			cfg.Reserved = 60
			cfg.Elastic = c.et
			cfg.Allocator = policy.GreedyMarginal{}
			cfg.RetainJobs = retain
			want, err := Run(cfg, c.et.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Allocator = policytest.ClobberAllocator(cfg.Allocator)
			got, err := Run(cfg, c.et.Jobs)
			if err != nil {
				t.Fatalf("%s (retain %v) through ClobberingAllocator: %v", c.name, retain, err)
			}
			if a, b := accDigest(got), accDigest(want); a != b {
				t.Errorf("%s (retain %v): accumulator %s through ClobberingAllocator, %s bare", c.name, retain, a, b)
			}
			if !retain {
				continue
			}
			if err := minSegments(2)(want); err != nil {
				t.Fatalf("%s: fixture no longer resizes a job: %v", c.name, err)
			}
			if a, b := jobRecordsDigest(got.Jobs), jobRecordsDigest(want.Jobs); a != b {
				t.Errorf("%s: job records %s through ClobberingAllocator, %s bare", c.name, a, b)
			}
		}
	}
}
