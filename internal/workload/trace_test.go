package workload

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/carbonsched/gaia/internal/simtime"
)

func mkJob(arrival simtime.Time, length simtime.Duration, cpus int) Job {
	return Job{Arrival: arrival, Length: length, CPUs: cpus}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		j  Job
		ok bool
	}{
		{mkJob(0, 60, 1), true},
		{mkJob(0, 0, 1), false},
		{mkJob(0, 60, 0), false},
		{mkJob(-1, 60, 1), false},
	}
	for i, c := range cases {
		err := c.j.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestJobHelpers(t *testing.T) {
	j := mkJob(100, 2*simtime.Hour, 3)
	if j.End(200) != 200+2*60 {
		t.Errorf("End = %v", j.End(200))
	}
	if j.CPUHours() != 6 {
		t.Errorf("CPUHours = %v", j.CPUHours())
	}
}

func TestQueueString(t *testing.T) {
	if QueueShort.String() != "short" || QueueLong.String() != "long" {
		t.Error("queue names broken")
	}
	if Queue(7).String() != "q7" {
		t.Error("numbered queue name broken")
	}
	for _, s := range []string{"short", "long", "q3"} {
		q, err := ParseQueue(s)
		if err != nil || q.String() != s {
			t.Errorf("ParseQueue(%q) = %v, %v", s, q, err)
		}
	}
	if _, err := ParseQueue("weird"); err == nil {
		t.Error("bad queue should fail to parse")
	}
	if _, err := ParseQueue("q-1"); err == nil {
		t.Error("negative queue should fail to parse")
	}
}

func TestNewTraceSortsAndRenumbers(t *testing.T) {
	tr, err := NewTrace("t", []Job{
		mkJob(300, 60, 1),
		mkJob(100, 60, 1),
		mkJob(200, 60, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Jobs[i].Arrival < tr.Jobs[i-1].Arrival {
			t.Fatal("not sorted by arrival")
		}
	}
	for i, j := range tr.Jobs {
		if j.ID != i {
			t.Fatal("IDs not renumbered")
		}
	}
	if tr.Span() != 300 {
		t.Errorf("Span = %v", tr.Span())
	}
}

func TestNewTraceValidates(t *testing.T) {
	if _, err := NewTrace("t", []Job{mkJob(0, 0, 1)}); err == nil {
		t.Error("invalid job should error")
	}
}

func TestTotalsAndMeans(t *testing.T) {
	tr := MustTrace("t", []Job{
		mkJob(0, simtime.Hour, 2),   // 2 CPU·h
		mkJob(0, 2*simtime.Hour, 1), // 2 CPU·h
	})
	if tr.TotalCPUHours() != 4 {
		t.Errorf("TotalCPUHours = %v", tr.TotalCPUHours())
	}
	if tr.MeanLength() != 90*simtime.Minute {
		t.Errorf("MeanLength = %v", tr.MeanLength())
	}
	if got := tr.MeanDemand(4 * simtime.Hour); got != 1 {
		t.Errorf("MeanDemand = %v", got)
	}
	empty := MustTrace("e", nil)
	if empty.MeanLength() != 0 || empty.Span() != 0 {
		t.Error("empty trace stats should be 0")
	}
	if tr.MeanDemand(0) != 0 {
		t.Error("zero-horizon demand should be 0")
	}
}

func TestAssignQueuesAndQueueMeans(t *testing.T) {
	tr := MustTrace("t", []Job{
		mkJob(0, simtime.Hour, 1),
		mkJob(0, 2*simtime.Hour, 1),
		mkJob(0, 5*simtime.Hour, 1),
	})
	tr.AssignQueues(2 * simtime.Hour)
	if tr.Jobs[0].Queue != QueueShort || tr.Jobs[1].Queue != QueueShort || tr.Jobs[2].Queue != QueueLong {
		t.Fatal("queue assignment broken")
	}
	means := tr.MeanLengthsByBounds([]simtime.Duration{2 * simtime.Hour})
	if !slices.Equal(means, []simtime.Duration{90 * simtime.Minute, 5 * simtime.Hour}) {
		t.Errorf("short, long means = %v, want [1h30m 5h]", means)
	}
	// An empty queue's mean is 0.
	if means := MustTrace("n", nil).MeanLengthsByBounds([]simtime.Duration{2 * simtime.Hour}); !slices.Equal(means, []simtime.Duration{0, 0}) {
		t.Errorf("empty trace means = %v, want [0 0]", means)
	}
	if means := tr.MeanLengthsByBounds([]simtime.Duration{30 * simtime.Minute}); means[0] != 0 {
		t.Errorf("empty short queue mean = %v, want 0", means[0])
	}
}

func TestClassifyQueues(t *testing.T) {
	lengths := []simtime.Duration{30 * simtime.Minute, 3 * simtime.Hour, 10 * simtime.Hour, 48 * simtime.Hour}
	// Four-class ladder: ≤1h, ≤6h, ≤24h, rest.
	bounds := []simtime.Duration{simtime.Hour, 6 * simtime.Hour, 24 * simtime.Hour}
	for i, l := range lengths {
		if q := ClassifyLength(l, bounds); q != Queue(i) {
			t.Errorf("length %v in queue %v, want %v", l, q, Queue(i))
		}
	}
	// Bounds are inclusive.
	if q := ClassifyLength(simtime.Hour, bounds); q != 0 {
		t.Errorf("a job at the bound went to queue %v, want 0", q)
	}
	// Empty ladder: everything in queue 0.
	for _, l := range lengths {
		if ClassifyLength(l, nil) != 0 {
			t.Error("empty ladder should classify all jobs to queue 0")
		}
	}
}

func TestQueueLadder(t *testing.T) {
	var none QueueLadder
	if got := none.OrDefault(); !slices.Equal(got, PaperQueues(DefaultWaitShort, DefaultWaitLong)) {
		t.Errorf("nil ladder defaults to %v", got)
	}
	if got := none.Bounds(); !slices.Equal(got, []simtime.Duration{DefaultShortMax}) {
		t.Errorf("nil ladder bounds = %v, want [2h]", got)
	}
	three := QueueLadder{{MaxLength: simtime.Hour}, {MaxLength: 6 * simtime.Hour}, {}}
	if got := three.Bounds(); !slices.Equal(got, []simtime.Duration{simtime.Hour, 6 * simtime.Hour}) {
		t.Errorf("bounds = %v, want [1h 6h]", got)
	}
	for _, ok := range []QueueLadder{nil, three, PaperQueues(0, 0), {{}}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%v: %v", ok, err)
		}
	}
	bad := []struct {
		l    QueueLadder
		want string
	}{
		{PaperQueues(-1, 0), "queue short has negative wait"},
		{QueueLadder{{MaxLength: simtime.Hour}, {MaxLength: 6 * simtime.Hour}, {MaxWait: -simtime.Hour}}, "queue q2 has negative wait"},
		{QueueLadder{{MaxLength: -simtime.Hour}}, "queue short has negative length bound"},
		{QueueLadder{{}, {}}, "queue short is unbounded but not the last"},
		{QueueLadder{{MaxLength: simtime.Hour}, {MaxLength: simtime.Hour}, {}}, "queue short: 1h"},
	}
	for _, c := range bad {
		if err := c.l.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one containing %q", c.l, err, c.want)
		}
	}
}

func TestFamilyByName(t *testing.T) {
	for _, name := range []string{"alibaba", "azure", "mustang"} {
		if f, ok := FamilyByName(name); !ok || f.Name != name {
			t.Errorf("FamilyByName(%q) = %q, %v", name, f.Name, ok)
		}
	}
	for _, name := range []string{"poisson", "alibaba-week", "Alibaba", ""} {
		if _, ok := FamilyByName(name); ok {
			t.Errorf("FamilyByName(%q) found a family", name)
		}
	}
}

func TestFilterLength(t *testing.T) {
	tr := MustTrace("t", []Job{
		mkJob(0, 2, 1),
		mkJob(0, 10, 1),
		mkJob(0, 100, 1),
	})
	f := tr.FilterLength(5, 50)
	if f.Len() != 1 || f.Jobs[0].Length != 10 {
		t.Errorf("FilterLength kept %d jobs", f.Len())
	}
}

func TestFilterCPUs(t *testing.T) {
	tr := MustTrace("t", []Job{
		mkJob(0, 10, 1),
		mkJob(0, 10, 4),
		mkJob(0, 10, 9),
	})
	f := tr.FilterCPUs(4)
	if f.Len() != 2 {
		t.Errorf("FilterCPUs kept %d jobs", f.Len())
	}
	for _, j := range f.Jobs {
		if j.CPUs > 4 {
			t.Error("kept an oversized job")
		}
	}
}

func TestSampleN(t *testing.T) {
	jobs := make([]Job, 100)
	for i := range jobs {
		jobs[i] = mkJob(simtime.Time(i), 10, 1)
	}
	tr := MustTrace("t", jobs)
	rng := rand.New(rand.NewSource(1))
	s := tr.SampleN(rng, 30)
	if s.Len() != 30 {
		t.Fatalf("SampleN = %d jobs", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Jobs[i].Arrival < s.Jobs[i-1].Arrival {
			t.Fatal("sample not in arrival order")
		}
	}
	all := tr.SampleN(rng, 1000)
	if all.Len() != 100 {
		t.Errorf("oversample should return all jobs, got %d", all.Len())
	}
}

func TestReplicate(t *testing.T) {
	tr := MustTrace("t", []Job{mkJob(10, 5, 1), mkJob(20, 5, 2)})
	r, err := tr.Replicate(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 {
		t.Fatalf("Replicate len = %d", r.Len())
	}
	if r.Jobs[2].Arrival != 110 || r.Jobs[5].Arrival != 220 {
		t.Errorf("shifted arrivals wrong: %v, %v", r.Jobs[2].Arrival, r.Jobs[5].Arrival)
	}
	if _, err := tr.Replicate(0, 100); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := tr.Replicate(2, 0); err == nil {
		t.Error("period=0 should error")
	}
}

func TestDemandSeries(t *testing.T) {
	// One job of 2 CPUs for exactly the first hour, one of 1 CPU for the
	// first 30 minutes of hour 2.
	tr := MustTrace("t", []Job{
		mkJob(0, simtime.Hour, 2),
		mkJob(simtime.Time(simtime.Hour), 30*simtime.Minute, 1),
	})
	s := tr.DemandSeries(3 * simtime.Hour)
	if len(s) != 3 {
		t.Fatalf("series len = %d", len(s))
	}
	if s[0] != 2 {
		t.Errorf("hour 0 demand = %v, want 2", s[0])
	}
	if s[1] != 0.5 {
		t.Errorf("hour 1 demand = %v, want 0.5", s[1])
	}
	if s[2] != 0 {
		t.Errorf("hour 2 demand = %v, want 0", s[2])
	}
	if tr.DemandSeries(0) != nil {
		t.Error("zero horizon should return nil")
	}
}

func TestDemandSeriesTruncatesAtHorizon(t *testing.T) {
	tr := MustTrace("t", []Job{mkJob(simtime.Time(30*simtime.Minute), 10*simtime.Hour, 1)})
	s := tr.DemandSeries(simtime.Hour)
	if len(s) != 1 || s[0] != 0.5 {
		t.Errorf("truncated series = %v", s)
	}
}

// Property: total CPU hours equals the integral of the demand series when
// all jobs fit inside the horizon.
func TestDemandConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		jobs := make([]Job, 0, len(raw))
		for i, v := range raw {
			jobs = append(jobs, Job{
				Arrival: simtime.Time(v % 1000),
				Length:  simtime.Duration(v%300) + 1,
				CPUs:    int(v%5) + 1,
				ID:      i,
			})
		}
		tr := MustTrace("t", jobs)
		horizon := 2000 * simtime.Minute // all jobs end well before this
		series := tr.DemandSeries(horizon)
		var integ float64
		for _, d := range series {
			integ += d // CPU·hours per hourly slot
		}
		return math.Abs(integ-tr.TotalCPUHours()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLengthAndCPUCDFs(t *testing.T) {
	tr := MustTrace("t", []Job{
		mkJob(0, 10, 1),
		mkJob(0, 20, 2),
		mkJob(0, 30, 4),
		mkJob(0, 40, 8),
	})
	lc := tr.LengthCDF()
	if lc.At(20) != 0.5 {
		t.Errorf("LengthCDF(20) = %v", lc.At(20))
	}
	cc := tr.CPUCDF()
	if cc.At(2) != 0.5 {
		t.Errorf("CPUCDF(2) = %v", cc.At(2))
	}
}
