package metrics

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// TestShardedFillMatchesAddJob pins the sharded-fill decomposition: a
// concurrent PutJob/PutCost fill with usage binned into shard-private
// UsageDeltas, the deltas folded afterwards, plus a sequential AddCPUHours
// fold must be byte-identical to the classic AddJob+AddUsage stream over
// the same jobs in the same finish order.
func TestShardedFillMatchesAddJob(t *testing.T) {
	const n = 1000
	horizon := 24 * simtime.Hour
	rnd := rand.New(rand.NewSource(7))
	recs := make([]JobResult, n)
	for i := range recs {
		start := simtime.Time(rnd.Int63n(int64(horizon)))
		length := simtime.Duration(1 + rnd.Int63n(int64(10*simtime.Hour)))
		cpus := 1 + rnd.Intn(8)
		res := rnd.Intn(cpus + 1)
		hours := simtime.Interval{Start: start, End: start.Add(length)}.Len().Hours()
		recs[i] = JobResult{
			JobID:          i,
			Queue:          workload.Queue(rnd.Intn(2)),
			CPUs:           cpus,
			Length:         length,
			Arrival:        start - simtime.Time(rnd.Int63n(120)),
			Start:          start,
			Finish:         start.Add(length),
			Waiting:        simtime.Duration(rnd.Int63n(120)),
			Carbon:         rnd.Float64() * 10,
			BaselineCarbon: rnd.Float64() * 10,
			UsageCost:      rnd.Float64() * 5,
			CPUHours: [3]float64{
				float64(res) * hours,
				float64(cpus-res) * hours,
				0,
			},
			Segments: []Segment{{
				Interval: simtime.Interval{Start: start, End: start.Add(length)},
				Reserved: res,
				OnDemand: cpus - res,
			}},
		}
	}
	// The engine folds jobs in finish order, not ID order.
	finishOrder := rnd.Perm(n)

	seq := NewAccumulator(n, horizon)
	for _, i := range finishOrder {
		rec := &recs[i]
		seq.AddJob(rec)
		seg := rec.Segments[0]
		seq.AddUsage(seg.Interval, seg.Reserved, seg.OnDemand, 0)
	}

	shard := NewAccumulator(n, horizon)
	// Pre-grow to the maximum end the fill will bin, as the direct path
	// does before resetting its deltas.
	maxEnd := simtime.Time(0)
	for i := range recs {
		if recs[i].Finish > maxEnd {
			maxEnd = recs[i].Finish
		}
	}
	shard.GrowUsage(maxEnd)
	const workers = 4
	deltas := make([]UsageDelta, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		usage := &deltas[w]
		usage.Reset(shard)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				rec := &recs[i]
				shard.PutJob(i, rec.Waiting, rec.Length, rec.Carbon, rec.BaselineCarbon, rec.Queue)
				shard.PutCost(i, rec.UsageCost)
				seg := rec.Segments[0]
				usage.Add(seg.Interval, seg.Reserved, seg.OnDemand, 0)
			}
		}()
	}
	wg.Wait()
	for w := range deltas {
		shard.AddUsageDelta(&deltas[w])
	}
	for _, i := range finishOrder {
		shard.AddCPUHours(recs[i].CPUHours)
	}

	sb, hb := EncodeAccumulator(seq), EncodeAccumulator(shard)
	if !bytes.Equal(sb, hb) {
		t.Error("sharded fill does not match sequential AddJob stream byte for byte")
	}
}

// TestUsageDeltaPastHorizonPanics pins the contract that a delta refuses
// to bin past the usage bins it was Reset to instead of silently dropping
// usage (it cannot grow its accumulator's bins), and that a delta never
// folds into an accumulator with fewer bins than it covers.
func TestUsageDeltaPastHorizonPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	a := NewAccumulator(1, simtime.Hour)
	a.GrowUsage(simtime.Time(2 * simtime.Hour))
	var u UsageDelta
	u.Reset(a)
	u.Add(simtime.Interval{Start: 0, End: simtime.Time(2 * simtime.Hour)}, 1, 0, 0)
	mustPanic("UsageDelta.Add past the grown horizon", func() {
		u.Add(simtime.Interval{
			Start: simtime.Time(2 * simtime.Hour),
			End:   simtime.Time(2*simtime.Hour + 1),
		}, 1, 0, 0)
	})
	mustPanic("AddUsageDelta into fewer bins", func() {
		NewAccumulator(1, simtime.Hour).AddUsageDelta(&u)
	})
}

// TestGrowUsageMatchesOnDemandGrowth pins GrowUsage's growth rule against
// AddUsage's incremental rule: pre-growing to an end and binning nothing
// must leave the same bin count as binning an interval reaching that end.
func TestGrowUsageMatchesOnDemandGrowth(t *testing.T) {
	for _, end := range []simtime.Time{1, 59, 60, 61, 600, 3601} {
		grown := NewAccumulator(0, 0)
		grown.GrowUsage(end)
		incr := NewAccumulator(0, 0)
		incr.AddUsage(simtime.Interval{Start: 0, End: end}, 1, 0, 0)
		// Bin counts must match; contents differ (incr actually binned).
		for o := range grown.usage {
			if g, i := len(grown.usage[o]), len(incr.usage[o]); g != i {
				t.Errorf("end %d option %d: GrowUsage made %d bins, AddUsage %d", end, o, g, i)
			}
		}
	}
}

// TestMemBytesCountsCapacity: MemBytes counts what the columns and bins
// occupy, so bins that AddUsage grew past their horizon count at their
// capacity, until GrowUsage trims them to their length.
func TestMemBytesCountsCapacity(t *testing.T) {
	a := NewAccumulator(5, 3*simtime.Hour)
	if got, want := a.MemBytes(), 5*(8*5+1)+3*3*8; got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
	a.AddUsage(simtime.Interval{Start: 0, End: simtime.Time(4 * simtime.Hour)}, 1, 0, 0)
	want := 5 * (8*5 + 1)
	for _, u := range a.usage {
		want += 8 * cap(u)
	}
	if got := a.MemBytes(); got != want || cap(a.usage[0]) == len(a.usage[0]) {
		t.Fatalf("grown bins: MemBytes = %d, want %d over spare capacity", got, want)
	}
	bins := append([]int64(nil), a.usage[0]...)
	a.GrowUsage(0)
	if got, want := a.MemBytes(), 5*(8*5+1)+3*4*8; got != want {
		t.Fatalf("trimmed bins: MemBytes = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(a.usage[0], bins) {
		t.Fatalf("trimming changed the bins: %v, want %v", a.usage[0], bins)
	}
}

// usageCase is one FuzzUsageDelta interval: minutes [start, end) with
// per-option units.
type usageCase struct {
	start, end               int16
	reserved, onDemand, spot uint8
}

const usageCaseSize = 7

func encodeUsageCases(cs ...usageCase) []byte {
	var b []byte
	for _, c := range cs {
		b = binary.LittleEndian.AppendUint16(b, uint16(c.start))
		b = binary.LittleEndian.AppendUint16(b, uint16(c.end))
		b = append(b, c.reserved, c.onDemand, c.spot)
	}
	return b
}

func decodeUsageCases(b []byte) []usageCase {
	cs := make([]usageCase, 0, len(b)/usageCaseSize)
	for ; len(b) >= usageCaseSize; b = b[usageCaseSize:] {
		cs = append(cs, usageCase{
			start:    int16(binary.LittleEndian.Uint16(b)),
			end:      int16(binary.LittleEndian.Uint16(b[2:])),
			reserved: b[4], onDemand: b[5], spot: b[6],
		})
	}
	return cs
}

// FuzzUsageDelta pins the difference encoding: for any interval list,
// binning through two UsageDeltas (pre-grown to the latest binned end, as
// the direct path does) and folding them yields exactly the bins of the
// sequential AddUsage stream.
func FuzzUsageDelta(f *testing.F) {
	seeds := []struct {
		hours uint8
		cs    []usageCase
	}{
		// exact hour multiples
		{4, []usageCase{{0, 60, 1, 0, 0}, {60, 180, 2, 3, 0}, {120, 600, 0, 1, 5}}},
		// one-minute and one-hour intervals, on and off the hour
		{3, []usageCase{{59, 60, 1, 1, 1}, {60, 61, 2, 0, 0}, {125, 126, 0, 4, 0}, {30, 90, 1, 2, 0}, {0, 60, 3, 0, 0}}},
		// intervals ending in the last grown bin: on its closing minute,
		// and one minute into a bin grown past the horizon
		{2, []usageCase{{100, 120, 1, 0, 0}, {0, 179, 2, 1, 0}, {170, 180, 0, 0, 7}}},
		{2, []usageCase{{119, 181, 1, 1, 1}, {150, 181, 0, 2, 0}, {180, 181, 3, 0, 0}}},
		// negative starts, including wholly negative intervals
		{1, []usageCase{{-30, 30, 1, 2, 0}, {-120, -60, 5, 5, 5}, {-5, 60, 0, 3, 0}, {-61, 1, 1, 0, 0}}},
		// empty and inverted intervals beside real ones
		{2, []usageCase{{50, 50, 1, 1, 1}, {70, 20, 2, 0, 0}, {0, 0, 1, 0, 0}, {10, 11, 1, 0, 0}, {900, 400, 9, 9, 9}}},
		// no intervals at all
		{0, nil},
	}
	for _, s := range seeds {
		f.Add(s.hours, encodeUsageCases(s.cs...))
	}
	f.Fuzz(func(t *testing.T, hours uint8, data []byte) {
		cs := decodeUsageCases(data)
		horizon := simtime.Duration(hours) * simtime.Hour
		want := NewAccumulator(0, horizon)
		got := NewAccumulator(0, horizon)
		ivs := make([]simtime.Interval, len(cs))
		maxEnd := simtime.Time(0)
		for i, c := range cs {
			ivs[i] = simtime.Interval{Start: simtime.Time(c.start), End: simtime.Time(c.end)}
			want.AddUsage(ivs[i], int(c.reserved), int(c.onDemand), int(c.spot))
			if ivs[i].End > max(ivs[i].Start, 0) && ivs[i].End > maxEnd {
				maxEnd = ivs[i].End
			}
		}
		got.GrowUsage(maxEnd)
		var deltas [2]UsageDelta
		for k := range deltas {
			deltas[k].Reset(got)
		}
		for i, c := range cs {
			deltas[i%2].Add(ivs[i], int(c.reserved), int(c.onDemand), int(c.spot))
		}
		for k := range deltas {
			got.AddUsageDelta(&deltas[k])
		}
		if !reflect.DeepEqual(got.usage, want.usage) {
			t.Errorf("delta-folded bins differ from AddUsage bins:\ngot  %v\nwant %v", got.usage, want.usage)
		}
	})
}
