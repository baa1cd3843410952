package metrics

import (
	"math"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// accumulated builds r the way core.NewResult does: jobs are folded into a
// fresh accumulator over r's horizon (AddJob, plus AddUsage per execution
// segment) and kept as r's retained records.
func accumulated(r *Result, jobs ...JobResult) *Result {
	acc := NewAccumulator(len(jobs), r.Horizon)
	for i := range jobs {
		j := &jobs[i]
		acc.AddJob(j)
		for _, seg := range j.Segments {
			acc.AddUsage(seg.Interval, seg.Reserved, seg.OnDemand, seg.Spot)
		}
	}
	r.Jobs = jobs
	r.AttachAccumulator(acc)
	return r
}

// Division-by-zero audit: the ratio metrics must answer 0, not NaN or a
// panic, on degenerate runs.
func TestDegenerateRunsYieldZeros(t *testing.T) {
	cases := []struct {
		name string
		r    *Result
	}{
		{"empty-retained", accumulated(&Result{Horizon: simtime.Hour}, []JobResult{}...)},
		{"empty-streaming", accumulated(&Result{Horizon: 10 * simtime.Hour})},
		// One zero-length job: completion is Waiting + Length, so a job
		// with any length would make MeanCompletion nonzero.
		{"no-reserved", accumulated(&Result{Horizon: simtime.Hour}, JobResult{})},
		{"zero-horizon", accumulated(&Result{Reserved: 4})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checks := []struct {
				name string
				got  float64
			}{
				{"MeanWaiting", float64(tc.r.MeanWaiting())},
				{"MeanCompletion", float64(tc.r.MeanCompletion())},
				{"ReservedUtilization", tc.r.ReservedUtilization()},
				{"CarbonSavingsFraction", tc.r.CarbonSavingsFraction()},
				{"WaitingPercentile(50)", float64(tc.r.WaitingPercentile(50))},
			}
			for _, c := range checks {
				if c.got != 0 || math.IsNaN(c.got) {
					t.Errorf("%s = %v, want 0", c.name, c.got)
				}
			}
		})
	}
}

// CarbonSavingsFraction must stay finite when only the baseline is zero.
func TestSavingsFractionZeroBaseline(t *testing.T) {
	r := accumulated(&Result{}, JobResult{Carbon: 5, BaselineCarbon: 0})
	if got := r.CarbonSavingsFraction(); got != 0 {
		t.Errorf("savings with zero baseline = %v, want 0", got)
	}
}

func waitingResult(waits ...simtime.Duration) *Result {
	jobs := make([]JobResult, len(waits))
	for i, w := range waits {
		jobs[i] = JobResult{JobID: i, Waiting: w, Length: simtime.Hour}
	}
	return accumulated(&Result{Horizon: simtime.Hour}, jobs...)
}

// WaitingPercentile edge cases: empty result, rank clamping at both ends,
// NaN rank, and the single-job degenerate.
func TestWaitingPercentileEdges(t *testing.T) {
	cases := []struct {
		name string
		r    *Result
		p    float64
		want simtime.Duration
	}{
		{"empty", waitingResult(), 50, 0},
		{"nan", waitingResult(simtime.Hour), math.NaN(), 0},
		{"p0-is-min", waitingResult(3*simtime.Hour, simtime.Hour, 2*simtime.Hour), 0, simtime.Hour},
		{"p100-is-max", waitingResult(3*simtime.Hour, simtime.Hour, 2*simtime.Hour), 100, 3 * simtime.Hour},
		{"clamp-low", waitingResult(3*simtime.Hour, simtime.Hour), -40, simtime.Hour},
		{"clamp-high", waitingResult(3*simtime.Hour, simtime.Hour), 250, 3 * simtime.Hour},
		{"single-job", waitingResult(90 * simtime.Minute), 37.5, 90 * simtime.Minute},
		{"median-interpolates", waitingResult(0, simtime.Hour), 50, 30 * simtime.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.WaitingPercentile(tc.p); got != tc.want {
				t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
			// Memoized second query must agree with the first.
			if got := tc.r.WaitingPercentile(tc.p); got != tc.want {
				t.Errorf("memoized: percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

// replayUsage is the reference the usage bins are checked against: every
// segment replayed minute by minute over [0, horizon), each minute adding
// the segment's units to its hour, and each hour's sum divided by 60.
func replayUsage(horizon simtime.Duration, segs []Segment) [3][]float64 {
	slots := int(horizon / simtime.Hour)
	var out [3][]float64
	if slots <= 0 {
		return out
	}
	for o := range out {
		out[o] = make([]float64, slots)
	}
	for _, seg := range segs {
		units := [3]int{cloud.Reserved: seg.Reserved, cloud.OnDemand: seg.OnDemand, cloud.Spot: seg.Spot}
		for m := max(seg.Interval.Start, 0); m < seg.Interval.End && int(m) < slots*60; m++ {
			for o, u := range units {
				out[o][m/60] += float64(u)
			}
		}
	}
	for o := range out {
		for h := range out[o] {
			out[o][h] /= 60
		}
	}
	return out
}

// UsageSeries bin boundaries: segments straddling hour edges must split
// their minutes across bins, segments past the horizon must truncate, and
// the binned series must equal a minute-level replay of the segments
// exactly.
func TestUsageSeriesBinBoundaries(t *testing.T) {
	seg := func(startMin, endMin simtime.Duration, res, od, spot int) Segment {
		return Segment{
			Interval: simtime.Interval{Start: simtime.Time(startMin), End: simtime.Time(endMin)},
			Reserved: res, OnDemand: od, Spot: spot,
		}
	}
	cases := []struct {
		name    string
		horizon simtime.Duration
		segs    []Segment
		// wantOnDemand is the expected series for the on-demand option.
		wantOnDemand []float64
	}{
		{
			"aligned-hour",
			3 * simtime.Hour,
			[]Segment{seg(60, 120, 0, 2, 0)},
			[]float64{0, 2, 0},
		},
		{
			"straddles-edge",
			3 * simtime.Hour,
			[]Segment{seg(90, 150, 0, 1, 0)},
			[]float64{0, 0.5, 0.5},
		},
		{
			"sub-hour-sliver",
			2 * simtime.Hour,
			[]Segment{seg(59, 61, 0, 4, 0)},
			[]float64{4.0 / 60, 4.0 / 60},
		},
		{
			"truncated-at-horizon",
			2 * simtime.Hour,
			[]Segment{seg(90, 240, 0, 3, 0)},
			[]float64{0, 1.5},
		},
		{
			"starts-past-horizon",
			simtime.Hour,
			[]Segment{seg(120, 180, 0, 1, 0)},
			[]float64{0},
		},
		{
			"overlapping-segments-sum",
			2 * simtime.Hour,
			[]Segment{seg(0, 120, 0, 1, 0), seg(30, 90, 0, 2, 0)},
			[]float64{2, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := accumulated(&Result{Horizon: tc.horizon}, JobResult{Length: simtime.Hour, Segments: tc.segs})
			binned := r.UsageSeries(tc.horizon)
			if replayed := replayUsage(tc.horizon, tc.segs); !reflect.DeepEqual(binned, replayed) {
				t.Fatalf("bins disagree with the segment replay:\nbinned   %v\nreplayed %v", binned, replayed)
			}
			if got := binned[cloud.OnDemand]; !reflect.DeepEqual(got, tc.wantOnDemand) {
				t.Errorf("on-demand series = %v, want %v", got, tc.wantOnDemand)
			}
		})
	}
}

func TestAccumulatorQueueTags(t *testing.T) {
	acc := NewAccumulator(2, simtime.Hour)
	acc.AddJob(&JobResult{JobID: 1, Queue: workload.QueueLong})
	if acc.Queue(0) != workload.QueueShort || acc.Queue(1) != workload.QueueLong {
		t.Errorf("queue tags = %v, %v", acc.Queue(0), acc.Queue(1))
	}
}
