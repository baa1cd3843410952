package policy

import (
	"sort"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
	"github.com/carbonsched/gaia/internal/workload"
)

// WaitAwhile is the suspend-resume baseline of Wiesner et al.: it knows
// the exact job length J and a deadline (here now + J + W, matching the
// paper's configuration), and executes the job in the lowest-carbon slots
// summing to J within that deadline, pausing in between.
type WaitAwhile struct{}

// Name implements Policy.
func (WaitAwhile) Name() string { return "WaitAwhile" }

// Decide implements Policy. With oracle fast paths enabled the CI rank
// of the deadline's slots comes from the Context's rolling rank window,
// built and extended from the trace's slot ranking (see
// carbon.SlotRanking) rather than sorted per job, and the plan is the
// Context's scratch; otherwise it falls back to the reference per-job
// sort.
func (p WaitAwhile) Decide(job workload.Job, now simtime.Time, ctx *Context) Decision {
	if ctx.ftrace != nil {
		if d, ok := ctx.fastWaitAwhile(job, now); ok {
			return d
		}
	}
	return p.referenceDecide(job, now, ctx)
}

// referenceDecide is the per-job sort-and-pick the fast path is
// differential-tested against.
func (WaitAwhile) referenceDecide(job workload.Job, now simtime.Time, ctx *Context) Decision {
	w := ctx.Queue(job.Queue).MaxWait
	deadline := now.Add(job.Length + w)
	slots := hourSlots(now, deadline)
	// Sort candidate slots by (CI, time); earlier slots win ties so
	// completion time is minimized at equal carbon.
	sort.SliceStable(slots, func(i, j int) bool {
		ci, cj := ctx.CIS.Intensity(slots[i].Start), ctx.CIS.Intensity(slots[j].Start)
		if ci != cj {
			return ci < cj
		}
		return slots[i].Start < slots[j].Start
	})
	picked := make([]simtime.Interval, 0, len(slots))
	var total simtime.Duration
	for _, s := range slots {
		if total >= job.Length {
			break
		}
		need := job.Length - total
		if s.Len() > need {
			// Trim: CI is constant within the slot, so keeping the
			// earliest portion minimizes completion time.
			s.End = s.Start.Add(need)
		}
		picked = append(picked, s)
		total += s.Len()
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].Start < picked[j].Start })
	return Decision{Plan: mergeAdjacent(picked)}
}

// Ecovisor is the greedy-threshold suspend-resume baseline of Souza et
// al.: run whenever the current CI is below the 30th percentile of the
// next 24 hours (computed at arrival), pause otherwise; once the job has
// waited its queue's full allowance it runs to completion regardless.
type Ecovisor struct {
	// ThresholdPercentile is the CI percentile below which the job runs;
	// 0 means the paper's 30.
	ThresholdPercentile float64
}

// Name implements Policy.
func (Ecovisor) Name() string { return "Ecovisor" }

// Decide implements Policy. The plan is the Context's scratch (see
// Decision).
func (e Ecovisor) Decide(job workload.Job, now simtime.Time, ctx *Context) Decision {
	pct := e.ThresholdPercentile
	if pct <= 0 {
		pct = 30
	}
	// Threshold: percentile of hourly CI over the next 24 h. The samples
	// land in a Context scratch array and are sorted in place — the
	// percentile arithmetic is unchanged, only the copy is gone.
	next24 := ctx.next24[:]
	for h := 0; h < 24; h++ {
		next24[h] = ctx.CIS.Intensity(now.Add(simtime.Duration(h) * simtime.Hour))
	}
	threshold, err := stats.PercentileInPlace(next24, pct)
	if err != nil {
		threshold = ctx.CIS.Intensity(now)
	}

	w := ctx.Queue(job.Queue).MaxWait
	plan := ctx.picked[:0]
	remaining := job.Length
	var paused simtime.Duration
	cur := now
	for remaining > 0 {
		slotEnd := simtime.Time((cur.HourIndex() + 1) * int(simtime.Hour))
		if ctx.CIS.Intensity(cur) < threshold {
			run := simtime.Min(slotEnd.Sub(cur), remaining)
			plan = appendWindow(plan, simtime.Interval{Start: cur, End: cur.Add(run)})
			remaining -= run
			cur = cur.Add(run)
			continue
		}
		pause := slotEnd.Sub(cur)
		if paused+pause >= w {
			// Waiting allowance exhausted mid-pause: start at the
			// allowance boundary and run to completion.
			start := cur.Add(w - paused)
			plan = appendWindow(plan, simtime.Interval{Start: start, End: start.Add(remaining)})
			remaining = 0
			break
		}
		paused += pause
		cur = slotEnd
	}
	ctx.picked = plan
	return Decision{Plan: plan}
}

// WaitAwhileEst is this implementation's realization of the paper's
// stated future work (§4.1): suspend-resume scheduling inside GAIA
// itself, i.e. without Wait Awhile's exact-length knowledge. It plans the
// lowest-carbon slots summing to the queue-average length Javg within
// [now, now + Javg + W]; the simulator truncates the plan if the job is
// shorter and runs past the final window if it is longer.
type WaitAwhileEst struct{}

// Name implements Policy.
func (WaitAwhileEst) Name() string { return "WaitAwhile-Est" }

// Decide implements Policy.
func (WaitAwhileEst) Decide(job workload.Job, now simtime.Time, ctx *Context) Decision {
	est := estimatedLength(job, ctx)
	surrogate := job
	surrogate.Length = est
	return WaitAwhile{}.Decide(surrogate, now, ctx)
}

// hourSlots splits [from, to) into hour-aligned candidate slots; the first
// and last may be partial.
func hourSlots(from, to simtime.Time) []simtime.Interval {
	var out []simtime.Interval
	cur := from
	for cur < to {
		slotEnd := simtime.Time((cur.HourIndex() + 1) * int(simtime.Hour))
		end := simtime.MinTime(slotEnd, to)
		out = append(out, simtime.Interval{Start: cur, End: end})
		cur = end
	}
	return out
}

// mergeAdjacent coalesces touching intervals of an ascending plan.
func mergeAdjacent(ivs []simtime.Interval) []simtime.Interval {
	if len(ivs) == 0 {
		return nil
	}
	out := []simtime.Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start == last.End {
			last.End = iv.End
		} else {
			out = append(out, iv)
		}
	}
	return out
}
