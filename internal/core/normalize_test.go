package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// TestRunSharesNormalizedTrace pins the zero-copy fast path: a trace that
// already satisfies NewTrace's invariants is scheduled as-is, without a
// per-run copy.
func TestRunSharesNormalizedTrace(t *testing.T) {
	jobs := workload.MustTrace("sorted", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: simtime.Time(simtime.Hour), Length: 2 * simtime.Hour, CPUs: 2},
	})
	if got := normalizedTrace(jobs); got != jobs {
		t.Error("normalized trace was copied, want shared")
	}
}

// TestRunNormalizesUnsortedTrace covers the slow path: a hand-built trace
// with out-of-order arrivals and unset IDs must produce the same result as
// its explicitly normalized form, and must not be mutated by Run.
func TestRunNormalizesUnsortedTrace(t *testing.T) {
	raw := []workload.Job{
		{Arrival: simtime.Time(5 * simtime.Hour), Length: simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: 3 * simtime.Hour, CPUs: 2},
		{Arrival: simtime.Time(2 * simtime.Hour), Length: 30 * simtime.Minute, CPUs: 1},
	}
	unsorted := &workload.Trace{Name: "raw", Jobs: append([]workload.Job(nil), raw...)}
	if got := normalizedTrace(unsorted); got == unsorted {
		t.Fatal("unsorted trace should be copied, not shared")
	}

	tr := flatTrace(48, 100)
	got, err := Run(baseConfig(tr, policy.CarbonTime{}), unsorted)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(baseConfig(tr, policy.CarbonTime{}), workload.MustTrace("raw", raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Errorf("unsorted input diverged from normalized input:\ngot  %+v\nwant %+v", got.Jobs, want.Jobs)
	}
	// Run must never write to the caller's trace.
	for i, j := range unsorted.Jobs {
		if j != raw[i] {
			t.Errorf("job %d mutated by Run: %+v, was %+v", i, j, raw[i])
		}
	}
}

// TestRunDoesNotMutateSharedTrace asserts the share-immutable contract
// directly: queue classification happens on per-event copies, so the
// shared trace's Queue fields stay untouched across a Run.
func TestRunDoesNotMutateSharedTrace(t *testing.T) {
	jobs := workload.MustTrace("shared", []workload.Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: simtime.Time(simtime.Hour), Length: 40 * simtime.Hour, CPUs: 2},
	})
	before := append([]workload.Job(nil), jobs.Jobs...)
	if _, err := Run(baseConfig(flatTrace(100, 100), policy.CarbonTime{}), jobs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs.Jobs, before) {
		t.Errorf("shared trace mutated:\nafter  %+v\nbefore %+v", jobs.Jobs, before)
	}
}

// evenTrace is a normalized n-job trace arriving every ten minutes.
func evenTrace(n int) *workload.Trace {
	jobs := make([]workload.Job, n)
	for i := range jobs {
		jobs[i] = workload.Job{Arrival: simtime.Time(10 * i), Length: simtime.Hour, CPUs: 1 + i%3}
	}
	return workload.MustTrace("even", jobs)
}

// withShards forces the direct path's fan-out width for the rest of the
// test.
func withShards(t *testing.T, w int32) {
	t.Helper()
	directWorkersOverride.Store(w)
	t.Cleanup(func() { directWorkersOverride.Store(0) })
}

// TestShardedScanRebuildsBoundaryInversion pins the shard seam of
// normalizedTrace's parallel scan: an arrival inversion whose two jobs sit
// on either side of a shard boundary — each shard sorted on its own — must
// still force the normalizing rebuild, and a clean trace must still be
// shared.
func TestShardedScanRebuildsBoundaryInversion(t *testing.T) {
	const n = 40
	for _, w := range []int32{2, 3, 4} {
		withShards(t, w)
		clean := evenTrace(n)
		if got := normalizedTrace(clean); got != clean {
			t.Errorf("%d shards: clean trace copied, want shared", w)
		}
		for _, sh := range par.Shards(int(w), n)[1:] {
			b := sh.Lo
			jobs := append([]workload.Job(nil), clean.Jobs...)
			jobs[b-1].Arrival = jobs[b].Arrival + 1
			tr := &workload.Trace{Name: "inverted", Jobs: jobs}
			got := normalizedTrace(tr)
			if got == tr {
				t.Errorf("%d shards: inversion across boundary %d not rebuilt", w, b)
				continue
			}
			if want := workload.MustTrace("inverted", jobs); !reflect.DeepEqual(got, want) {
				t.Errorf("%d shards: boundary %d rebuilt to %+v, want %+v", w, b, got.Jobs[b-1:b+1], want.Jobs[b-1:b+1])
			}
		}
	}
}

// TestShardedScanRebuildsLastShardDefect pins the far end of the scan: a
// trace whose only defect is its last job — misnumbered, or invalid — must
// get the same outcome as the sequential scan: a renumbered copy, or the
// validation error Run reports.
func TestShardedScanRebuildsLastShardDefect(t *testing.T) {
	const n = 40
	cfg := baseConfig(flatTrace(48, 100), policy.CarbonTime{})
	for _, w := range []int32{1, 2, 4} {
		withShards(t, w)
		misnumbered := append([]workload.Job(nil), evenTrace(n).Jobs...)
		misnumbered[n-1].ID = 0
		tr := &workload.Trace{Name: "misnumbered", Jobs: misnumbered}
		got := normalizedTrace(tr)
		if got == tr {
			t.Errorf("%d shards: misnumbered last job not rebuilt", w)
		} else if got.Jobs[n-1].ID != n-1 {
			t.Errorf("%d shards: rebuilt last job has ID %d, want %d", w, got.Jobs[n-1].ID, n-1)
		}

		invalid := append([]workload.Job(nil), evenTrace(n).Jobs...)
		invalid[n-1].CPUs = 0
		_, err := Run(cfg, &workload.Trace{Name: "invalid", Jobs: invalid})
		want := fmt.Sprintf("core: run failed: workload: job %d has non-positive CPUs 0", n-1)
		if err == nil || err.Error() != want {
			t.Errorf("%d shards: invalid last job: got %v, want %q", w, err, want)
		}
	}
}
