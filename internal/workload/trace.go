package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"sync/atomic"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
)

// Trace is an ordered collection of jobs — a cluster workload. Jobs are
// kept sorted by arrival time.
type Trace struct {
	Name string
	Jobs []Job

	fp atomic.Pointer[[32]byte] // memoized Fingerprint
}

// Fingerprint returns a content hash of the trace's scheduling-relevant
// content: the name and every job's ID, arrival, length, CPU demand and
// user. The Queue tag is deliberately excluded: every run classifies each
// job from its own QueueLadder, so the tag never influences a simulation
// result.
//
// The hash is memoized in the trace on first use, so it lives and dies
// with the trace; callers must not mutate jobs after fingerprinting (the
// same immutability the concurrent sweep engine already relies on). It is
// the workload half of the content-addressed simulation cache key.
func (t *Trace) Fingerprint() [32]byte {
	if fp := t.fp.Load(); fp != nil {
		return *fp
	}
	w := newFingerprintWriter()
	w.str(t.Name)
	w.u64(uint64(len(t.Jobs)))
	for i := range t.Jobs {
		j := &t.Jobs[i]
		w.u64(uint64(j.ID))
		w.u64(uint64(j.Arrival))
		w.u64(uint64(j.Length))
		w.u64(uint64(j.CPUs))
		w.str(j.User)
		w.flushFull()
	}
	fp := w.sum()
	t.fp.Store(fp)
	return *fp
}

// fingerprintBlock is how many encoded bytes a fingerprintWriter gathers
// before it hashes them.
const fingerprintBlock = 16 << 10

// fingerprintWriter encodes a fingerprint's fields into one reused buffer
// and hashes it a block at a time, rather than with one hash write per
// field. The digest is that of the concatenated encoding either way.
type fingerprintWriter struct {
	h   hash.Hash
	buf []byte
}

func newFingerprintWriter() *fingerprintWriter {
	// Twice a block: the record that fills a block still fits.
	return &fingerprintWriter{h: sha256.New(), buf: make([]byte, 0, 2*fingerprintBlock)}
}

// u64 appends v little-endian.
func (w *fingerprintWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// str appends s's length, then its bytes.
func (w *fingerprintWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// flushFull hashes the buffer once it holds a block; callers call it
// between records.
func (w *fingerprintWriter) flushFull() {
	if len(w.buf) >= fingerprintBlock {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// sum hashes what is buffered and returns the digest.
func (w *fingerprintWriter) sum() *[32]byte {
	w.h.Write(w.buf)
	fp := new([32]byte)
	w.h.Sum(fp[:0])
	return fp
}

// NewTrace builds a trace, stably sorting jobs by arrival and re-numbering
// IDs in arrival order. It returns an error naming the first malformed job
// in that order.
func NewTrace(name string, jobs []Job) (*Trace, error) {
	js := make([]Job, len(jobs))
	for i, id := range arrivalOrder(jobs) {
		js[i] = jobs[id]
		js[i].ID = i
		if err := js[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &Trace{Name: name, Jobs: js}, nil
}

// arrivalOrder returns the positions of jobs stably sorted by arrival —
// the order NewTrace and NewElasticTrace number jobs in. It is the radix
// order the direct path's sweep uses (simtime.Order), so normalizing a
// trace costs a gather, not a comparison sort of the jobs themselves.
func arrivalOrder(jobs []Job) []int32 {
	keys := make([]simtime.Time, len(jobs))
	for i := range jobs {
		keys[i] = jobs[i].Arrival
	}
	return simtime.Order(keys)
}

// MustTrace is NewTrace that panics on error.
func MustTrace(name string, jobs []Job) *Trace {
	tr, err := NewTrace(name, jobs)
	if err != nil {
		panic(err)
	}
	return tr
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Span returns the duration from time 0 to the last arrival.
func (t *Trace) Span() simtime.Duration {
	if len(t.Jobs) == 0 {
		return 0
	}
	return simtime.Duration(t.Jobs[len(t.Jobs)-1].Arrival)
}

// TotalCPUHours returns the total compute volume of the trace.
func (t *Trace) TotalCPUHours() float64 {
	var total float64
	for _, j := range t.Jobs {
		total += j.CPUHours()
	}
	return total
}

// MeanLength returns the mean job length, or 0 for an empty trace.
func (t *Trace) MeanLength() simtime.Duration {
	if len(t.Jobs) == 0 {
		return 0
	}
	var total simtime.Duration
	for _, j := range t.Jobs {
		total += j.Length
	}
	return total / simtime.Duration(len(t.Jobs))
}

// AssignQueues labels each job with its paper queue: jobs with Length <=
// shortMax are short, the rest long. It labels exported trace CSVs
// (gaia-trace); no simulation reads the tag (see Job.Queue).
func (t *Trace) AssignQueues(shortMax simtime.Duration) {
	bounds := []simtime.Duration{shortMax}
	for i := range t.Jobs {
		t.Jobs[i].Queue = ClassifyLength(t.Jobs[i].Length, bounds)
	}
}

// MeanLengthsByBounds returns the mean job length Javg of every queue of
// the bounds ladder (len(bounds)+1 entries, 0 for an empty queue), the
// coarse estimate of Lowest-Window and Carbon-Time (paper §4.2.1). It
// leaves the trace untouched, so concurrent runs can share it.
func (t *Trace) MeanLengthsByBounds(bounds []simtime.Duration) []simtime.Duration {
	totals := make([]simtime.Duration, len(bounds)+1)
	counts := make([]int, len(bounds)+1)
	for _, j := range t.Jobs {
		q := ClassifyLength(j.Length, bounds)
		totals[q] += j.Length
		counts[q]++
	}
	for i := range totals {
		if counts[i] > 0 {
			totals[i] /= simtime.Duration(counts[i])
		}
	}
	return totals
}

// FilterLength drops jobs shorter than min or longer than max, the paper's
// trace-construction rule (jobs <5 min contribute almost no carbon; jobs
// >3 days gain little from diurnal shifting). It returns a new trace.
func (t *Trace) FilterLength(min, max simtime.Duration) *Trace {
	kept := make([]Job, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		if j.Length < min || j.Length > max {
			continue
		}
		kept = append(kept, j)
	}
	return MustTrace(t.Name, kept)
}

// FilterCPUs drops jobs demanding more than max CPUs (the paper limits its
// prototype week trace to <=4-CPU jobs for budget reasons). It returns a
// new trace.
func (t *Trace) FilterCPUs(max int) *Trace {
	kept := make([]Job, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		if j.CPUs <= max {
			kept = append(kept, j)
		}
	}
	return MustTrace(t.Name, kept)
}

// SampleN uniformly samples n jobs without replacement (all jobs when
// n >= Len), preserving arrival order. This mirrors the paper's uniform
// sampling of 100k-job and 1k-job traces.
func (t *Trace) SampleN(rng *rand.Rand, n int) *Trace {
	if n >= len(t.Jobs) {
		return MustTrace(t.Name, t.Jobs)
	}
	idx := rng.Perm(len(t.Jobs))[:n]
	sort.Ints(idx)
	jobs := make([]Job, 0, n)
	for _, i := range idx {
		jobs = append(jobs, t.Jobs[i])
	}
	return MustTrace(t.Name, jobs)
}

// Replicate tiles the trace end-to-end n times (the paper's "length
// extension" for building year-long traces from shorter ones). The span of
// one tile is period; arrivals of copy k are shifted by k*period.
func (t *Trace) Replicate(n int, period simtime.Duration) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: replicate count %d must be positive", n)
	}
	if period <= 0 {
		return nil, fmt.Errorf("workload: replicate period %v must be positive", period)
	}
	jobs := make([]Job, 0, len(t.Jobs)*n)
	for k := 0; k < n; k++ {
		shift := simtime.Duration(k) * period
		for _, j := range t.Jobs {
			j.Arrival = j.Arrival.Add(shift)
			jobs = append(jobs, j)
		}
	}
	return NewTrace(t.Name, jobs)
}

// DemandSeries returns the aggregate CPU demand per hourly slot if every
// job ran immediately at arrival (the "original demand" of Figure 2a),
// covering [0, horizon).
func (t *Trace) DemandSeries(horizon simtime.Duration) []float64 {
	slots := int(horizon / simtime.Hour)
	if slots <= 0 {
		return nil
	}
	// Minute-resolution difference array, then aggregate to hourly means.
	// Partial trailing hours are dropped (the series covers whole slots).
	minutes := slots * 60
	diff := make([]int32, minutes+1)
	for _, j := range t.Jobs {
		s := int(j.Arrival)
		e := int(j.Arrival.Add(j.Length))
		if s >= minutes {
			continue
		}
		if e > minutes {
			e = minutes
		}
		diff[s] += int32(j.CPUs)
		diff[e] -= int32(j.CPUs)
	}
	out := make([]float64, slots)
	var cur int32
	for m := 0; m < minutes; m++ {
		cur += diff[m]
		out[m/60] += float64(cur)
	}
	for i := range out {
		out[i] /= 60
	}
	return out
}

// MeanDemand returns the time-averaged CPU demand over [0, horizon) —
// the paper's "mean demand" used to size reserved capacity (R in
// Figure 17).
func (t *Trace) MeanDemand(horizon simtime.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return t.TotalCPUHours() / horizon.Hours()
}

// DemandCV returns the coefficient of variation of the hourly demand
// series — the paper reports 0.8 for Mustang-HPC and 0.3 for Azure-VM
// (§6.4.4).
func (t *Trace) DemandCV(horizon simtime.Duration) float64 {
	return stats.CV(t.DemandSeries(horizon))
}

// LengthCDF returns the empirical CDF of job lengths in minutes
// (Figure 5a).
func (t *Trace) LengthCDF() *stats.ECDF {
	xs := make([]float64, len(t.Jobs))
	for i, j := range t.Jobs {
		xs[i] = float64(j.Length)
	}
	return stats.NewECDF(xs)
}

// CPUCDF returns the empirical CDF of per-job CPU demand (Figure 5b).
func (t *Trace) CPUCDF() *stats.ECDF {
	xs := make([]float64, len(t.Jobs))
	for i, j := range t.Jobs {
		xs[i] = float64(j.CPUs)
	}
	return stats.NewECDF(xs)
}
