package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// protoPin is one prototype run's outputs, recorded bit for bit.
type protoPin struct {
	cost, carbonG float64
	nodes         int
	// jobs is jobsDigest of the run: every job's Start, End and
	// ReservedBusyCarbon, in submission order.
	jobs string
}

// jobsDigest hashes the exact bits of each job's Start, End and
// ReservedBusyCarbon, so equal digests mean exact float equality.
func jobsDigest(jobs []*batch.Job) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, j := range jobs {
		put(uint64(j.Spec.ID))
		put(uint64(j.Start))
		put(uint64(j.End))
		put(math.Float64bits(j.ReservedBusyCarbon))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPrototypePinned holds the prototype runtime (internal/batch over
// internal/cluster) to recorded outputs with exact equality: x04's four
// policies on its week trace, and the config of
// batch.TestPrototypeStressMixedFleet (multi-CPU gangs, spot with 30%
// hourly evictions). Node choice, boot timing and billing may not move
// a single bit; a change that alters them must re-record these values
// and say why.
func TestPrototypePinned(t *testing.T) {
	tr, err := prototypeCarbon()
	if err != nil {
		t.Fatal(err)
	}
	week := prototypeWeek()
	rHalf, _ := weekReserved()
	x04 := func(p policy.Policy) batch.Config {
		return batch.Config{
			Policy:        p,
			Carbon:        tr,
			ReservedNodes: rHalf,
			Horizon:       10 * simtime.Day,
			Seed:          seedEviction,
		}
	}
	stress := batch.Config{
		Policy:        policy.CarbonTime{},
		Carbon:        carbon.RegionSAAU.Generate(24*16, 11),
		ReservedNodes: 30,
		SpotMaxLen:    2 * simtime.Hour,
		EvictionRate:  0.30,
		Pricing:       cloud.Pricing{OnDemandHourly: 1, ReservedFraction: 0.4, SpotFraction: 0.2},
		Power:         cloud.Power{KWPerCPU: 0.01},
		Seed:          13,
	}
	stressJobs := workload.MustangHPC().GenerateByCount(rand.New(rand.NewSource(12)), 250, simtime.Week)
	cases := []struct {
		name string
		cfg  batch.Config
		jobs *workload.Trace
		want protoPin
	}{
		{"x04/NoWait", x04(policy.NoWait{}), week,
			protoPin{344.93472000000025, 26349.40904625856, 551, "14bfd84075e7caa9"}},
		{"x04/Lowest-Window", x04(policy.LowestWindow{}), week,
			protoPin{415.2262399999996, 21736.58564520423, 895, "dbb1137098be155d"}},
		{"x04/WaitAwhile", x04(policy.WaitAwhile{}), week,
			protoPin{424.8930399999987, 15768.100956139713, 1951, "ebe5ba630583007a"}},
		{"x04/Carbon-Time", x04(policy.CarbonTime{}), week,
			protoPin{424.78904, 22364.610625562877, 836, "66c43fd5cbb6bcdc"}},
		{"stress-mixed-fleet", stress, stressJobs,
			protoPin{13061.556666666509, 30022.023533854594, 2728, "e688e86fcfcb74c3"}},
	}
	for _, tc := range cases {
		res, err := batch.Run(tc.cfg, tc.jobs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := protoPin{res.Cost, res.CarbonG, res.NodesLaunched, jobsDigest(res.Jobs)}
		if got != tc.want {
			t.Errorf("%s: got protoPin{%v, %v, %d, %q}, want %+v",
				tc.name, got.cost, got.carbonG, got.nodes, got.jobs, tc.want)
		}
	}
}
