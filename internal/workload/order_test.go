package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

// referenceOrder is the reference normalization's order is checked
// against: the positions of jobs stably sorted by arrival with a
// comparison sort.
func referenceOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(jobs[a].Arrival, jobs[b].Arrival) })
	return order
}

// referenceNewTrace is NewTrace over referenceOrder: renumber in arrival
// order, failing on the first malformed job in that order.
func referenceNewTrace(name string, jobs []Job) (*Trace, error) {
	js := make([]Job, len(jobs))
	for i, id := range referenceOrder(jobs) {
		js[i] = jobs[id]
		js[i].ID = i
		if err := js[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &Trace{Name: name, Jobs: js}, nil
}

// orderInput builds n jobs whose arrivals are drawn over [base, base+span)
// — from a pool of a few values when pool > 0, so ties are common — with
// random IDs, lengths, CPUs and users, and job bad (if in range) made
// malformed. FuzzNewTraceOrder reads bad values from n to 2n−1 as a
// malformed spec instead.
func orderInput(seed int64, n int, span int64, negative bool, pool, bad int) []Job {
	rng := rand.New(rand.NewSource(seed))
	base := simtime.Time(0)
	if negative {
		base = -simtime.Time(span / 2)
	}
	values := make([]simtime.Time, n)
	if pool > 0 && pool < n {
		values = values[:pool]
	}
	for i := range values {
		values[i] = base + simtime.Time(rng.Int63n(span))
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:      rng.Int(),
			Arrival: values[rng.Intn(len(values))],
			Length:  simtime.Duration(1 + rng.Intn(500)),
			CPUs:    1 + rng.Intn(8),
			Queue:   Queue(rng.Intn(3)),
			User:    fmt.Sprintf("u%d", i),
		}
	}
	if bad >= 0 && bad < n {
		if seed%2 == 0 {
			jobs[bad].Length = 0
		} else {
			jobs[bad].CPUs = 0
		}
	}
	return jobs
}

// FuzzNewTraceOrder sends arbitrary arrivals through NewTrace and
// NewElasticTrace — duplicates, negatives, spans from 1 minute to 2^62
// and up to 3000 jobs — and requires what a stable comparison sort gives:
// the same jobs in the same order, specs and edge endpoints renumbered
// with them, and the same error text for a malformed job.
func FuzzNewTraceOrder(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(10), false, uint8(0), uint16(0))
	f.Add(int64(2), uint16(1), uint8(0), true, uint8(0), uint16(5))
	f.Add(int64(3), uint16(600), uint8(10), false, uint8(3), uint16(9999))
	f.Add(int64(4), uint16(2500), uint8(19), false, uint8(0), uint16(9999))
	f.Add(int64(5), uint16(3000), uint8(62), false, uint8(0), uint16(1234))
	f.Add(int64(6), uint16(1500), uint8(40), true, uint8(7), uint16(9999))
	f.Add(int64(7), uint16(64), uint8(0), false, uint8(1), uint16(9999))
	f.Add(int64(8), uint16(2000), uint8(62), true, uint8(0), uint16(100))
	f.Add(int64(9), uint16(300), uint8(12), false, uint8(0), uint16(450))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spanBits uint8, negative bool, pool uint8, bad uint16) {
		jobs := orderInput(seed, int(n)%3001, int64(1)<<(spanBits%63), negative, int(pool%16), int(bad))
		in := slices.Clone(jobs)

		got, err := NewTrace("fuzz", jobs)
		want, wantErr := referenceNewTrace("fuzz", jobs)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("NewTrace error %v, want %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got.Jobs, want.Jobs) {
			t.Fatal("NewTrace order differs from a stable sort")
		}
		if !reflect.DeepEqual(jobs, in) {
			t.Fatal("NewTrace modified its input")
		}

		// Specs tagged by input position, and edges from each job to a
		// later-sorted one, so a misrouted spec or endpoint shows.
		order := referenceOrder(jobs)
		specs := make([]ElasticSpec, len(jobs))
		for i := range specs {
			max := 1 + i%4
			specs[i] = ElasticSpec{MinReplicas: i % 2, MaxReplicas: max, Curve: AmdahlCurve(0.9, max)}
		}
		if b := int(bad) - len(jobs); b >= 0 && b < len(jobs) {
			specs[b].MaxReplicas = 0
		}
		var edges, wantEdges []Edge
		for k := 0; k+1 < len(order) && k < 40; k += 3 {
			edges = append(edges, Edge{Src: order[k], Dst: order[k+1]})
			wantEdges = append(wantEdges, Edge{Src: k, Dst: k + 1})
		}
		et, err := NewElasticTrace("fuzz", jobs, specs, edges)
		var wantErrE error
		for pos, old := range order {
			j := jobs[old]
			j.ID = pos
			if wantErrE = j.Validate(); wantErrE != nil {
				break
			}
			if e := specs[old].Validate(); e != nil {
				wantErrE = fmt.Errorf("workload: job %d: %w", pos, e)
				break
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErrE) {
			t.Fatalf("NewElasticTrace error %v, want %v", err, wantErrE)
		}
		if err != nil {
			return
		}
		wantJobs := make([]Job, len(jobs))
		wantSpecs := make([]ElasticSpec, len(jobs))
		for pos, old := range order {
			wantJobs[pos] = jobs[old]
			wantJobs[pos].ID = pos
			wantSpecs[pos] = specs[old]
		}
		if !reflect.DeepEqual(et.Jobs.Jobs, wantJobs) {
			t.Fatal("NewElasticTrace job order differs from a stable sort")
		}
		if !reflect.DeepEqual(et.Specs, wantSpecs) {
			t.Fatal("NewElasticTrace specs did not follow their jobs")
		}
		if len(wantEdges) == 0 {
			wantEdges = []Edge{}
		}
		if !reflect.DeepEqual(et.Edges, wantEdges) {
			t.Fatalf("NewElasticTrace edges %v, want %v", et.Edges, wantEdges)
		}
	})
}

// binarySearchHour is the reference the hour guide is checked against:
// a binary search for the first hour h with cum[h+1] > u, or the last
// hour.
func binarySearchHour(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-2
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid+1] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestHourGuideMatchesBinarySearch: the guide table's lookup returns the
// binary search's hour for every mass — random ones, and the edges: 0,
// the total and just below it, each hour boundary and bucket edge and
// their neighbours —
// over random profiles with zero-rate hours at either end and inside,
// spiky and tiny or huge totals, and the generators' own profiles.
func TestHourGuideMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// A profile whose bucket edge 15 (bucket 6) is an hour boundary that
	// the mass just below it rounds into bucket 6: its lookup must walk
	// back from the bucket's start.
	profiles := [][]float64{{0, 4, 3, 4, 4, 0, 4, 1, 3, 1, 4, 2}}
	for _, f := range []Family{AlibabaPAI(), MustangHPC()} {
		profiles = append(profiles, f.NewRates(rand.New(rand.NewSource(3)), int(simtime.Year/simtime.Hour)))
	}
	for trial := 0; trial < 400; trial++ {
		hours := 1 + rng.Intn(400)
		rates := make([]float64, hours)
		scale := math.Pow(10, float64(rng.Intn(501)-250))
		for h := range rates {
			switch {
			case rng.Intn(4) == 0:
				rates[h] = 0
			case trial%4 == 0:
				rates[h] = scale * math.Exp(3*rng.NormFloat64())
			case trial%4 == 1:
				// Small integers and tenths: hour boundaries land on
				// bucket edges.
				rates[h] = float64(rng.Intn(5)) / float64(1+9*(trial/4%2))
			default:
				rates[h] = scale * rng.Float64()
			}
		}
		// Zero-rate runs at either end.
		for h := 0; h < hours && h < trial%5; h++ {
			rates[h] = 0
		}
		for h := hours - 1; h >= 0 && h >= hours-trial%7; h-- {
			rates[h] = 0
		}
		profiles = append(profiles, rates)
	}
	for i, rates := range profiles {
		cum := make([]float64, len(rates)+1)
		for h, r := range rates {
			cum[h+1] = cum[h] + r
		}
		total := cum[len(rates)]
		if !(total > 0) {
			continue // arrivals draws uniformly instead
		}
		g := newHourGuide(cum)
		masses := []float64{0, total, math.Nextafter(total, 0), math.SmallestNonzeroFloat64}
		for _, c := range cum {
			masses = append(masses, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		for b := range g.start {
			m := float64(b) / g.scale
			masses = append(masses, m, math.Nextafter(m, 0), math.Nextafter(m, math.Inf(1)))
		}
		for k := 0; k < 2000; k++ {
			masses = append(masses, rng.Float64()*total)
		}
		for _, u := range masses {
			if u < 0 || u > total {
				continue
			}
			if got, want := g.hour(u), binarySearchHour(cum, u); got != want {
				t.Fatalf("profile %d (%d hours, total %g): hour(%g) = %d, binary search %d",
					i, len(rates), total, u, got, want)
			}
		}
	}
}
