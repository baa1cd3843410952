package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// offlineDecide reproduces the offline scheduler's decision path for one
// advise request — a fresh policy.Context with the same queue knowledge,
// but WITHOUT the oracle fast paths, so the reference scans answer. The
// HTTP service answers from the fast-path tables; comparing the two pins
// the whole chain: fast path ≡ reference scan ≡ served bytes.
func offlineDecide(tr *carbon.Trace, req AdviseRequest) policy.Decision {
	pol, err := policy.ByName(req.Policy)
	if err != nil {
		panic(err)
	}
	queue := workload.QueueShort
	if req.Queue == "long" {
		queue = workload.QueueLong
	}
	now := simtime.Time(req.ArrivalMinute)
	job := workload.Job{
		Arrival: now,
		Length:  simtime.Duration(req.LengthMinutes),
		CPUs:    req.CPUs,
		Queue:   queue,
	}
	ctx := &policy.Context{
		CIS: carbon.NewPerfectService(tr),
		Queues: map[workload.Queue]policy.QueueInfo{
			queue: {
				MaxWait:   simtime.Duration(*req.MaxWaitMinutes),
				AvgLength: simtime.Duration(req.AvgLengthMinutes),
			},
		},
	}
	// Deliberately no EnableFastPaths: this is the reference path.
	return pol.Decide(job, now, ctx)
}

// offlineResponse assembles, with independent arithmetic, the exact JSON
// body the service must produce for a normalized request and the offline
// decision. Duplicating the formulas here (instead of calling the
// handler's helpers) is the point of the differential test.
func offlineResponse(tr *carbon.Trace, req AdviseRequest, dec policy.Decision) AdviseResponse {
	length := simtime.Duration(req.LengthMinutes)
	now := simtime.Time(req.ArrivalMinute)
	var windows []simtime.Interval
	if dec.IsPlan() {
		windows = policy.NormalizePlan(nil, dec.Plan, length)
	} else {
		windows = []simtime.Interval{{Start: dec.Start, End: dec.Start.Add(length)}}
	}
	power, pricing := cloud.DefaultPower(), cloud.DefaultPricing()
	var carbonG float64
	for _, iv := range windows {
		carbonG += power.Carbon(tr.Integral(iv), req.CPUs)
	}
	baselineG := power.Carbon(tr.Integral(simtime.Interval{Start: now, End: now.Add(length)}), req.CPUs)
	class := cloud.OnDemand
	if req.SpotMaxMinutes > 0 && length <= simtime.Duration(req.SpotMaxMinutes) {
		class = cloud.Spot
	}

	// FastPath is the one field the reference path cannot predict from
	// first principles; derive it the way the service does, from a
	// fast-path-enabled context.
	fastCtx := &policy.Context{
		CIS: carbon.NewPerfectService(tr),
		Queues: map[workload.Queue]policy.QueueInfo{
			queueOf(req): {
				MaxWait:   simtime.Duration(*req.MaxWaitMinutes),
				AvgLength: simtime.Duration(req.AvgLengthMinutes),
			},
		},
	}
	fastCtx.EnableFastPaths()
	pol, _ := policy.ByName(req.Policy)
	pol.Decide(workload.Job{
		Arrival: now, Length: length, CPUs: req.CPUs, Queue: queueOf(req),
	}, now, fastCtx)

	resp := AdviseResponse{
		Policy:              req.Policy,
		Region:              req.Region,
		Queue:               req.Queue,
		StartMinute:         int64(windows[0].Start),
		FinishMinute:        int64(windows[len(windows)-1].End),
		WaitMinutes:         int64(windows[len(windows)-1].End.Sub(now) - length),
		InstanceClass:       class.String(),
		CarbonGrams:         carbonG,
		BaselineCarbonGrams: baselineG,
		CarbonSavingsGrams:  baselineG - carbonG,
		CostUSD:             pricing.HourlyRate(class) * float64(req.CPUs) * length.Hours(),
		BaselineCostUSD:     pricing.HourlyRate(cloud.OnDemand) * float64(req.CPUs) * length.Hours(),
		FastPath:            fastCtx.FastPathHits() > 0,
	}
	if dec.IsPlan() {
		resp.Plan = make([]AdviseWindow, len(windows))
		for i, iv := range windows {
			resp.Plan[i] = AdviseWindow{StartMinute: int64(iv.Start), EndMinute: int64(iv.End)}
		}
	}
	return resp
}

func queueOf(req AdviseRequest) workload.Queue {
	if req.Queue == "long" {
		return workload.QueueLong
	}
	return workload.QueueShort
}

// TestAdviseDifferential pins /v1/advise decisions byte-identical to the
// offline policy path across every policy, several arrival minutes and
// both queues.
func TestAdviseDifferential(t *testing.T) {
	s := newTestServer(t, Config{TraceDays: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	arrivals := []int64{0, 37, 61 * 24, 3 * 24 * 60}
	type shape struct {
		lengthMin int64
		cpus      int
		spotMax   int64
	}
	shapes := []shape{
		{lengthMin: 90, cpus: 1, spotMax: 0},
		{lengthMin: 300, cpus: 4, spotMax: 120},
	}
	for _, pol := range policy.Names() {
		for _, region := range []string{"CA-US", "SA-AU"} {
			for _, arrival := range arrivals {
				for _, sh := range shapes {
					name := fmt.Sprintf("%s/%s/t%d/l%d", pol, region, arrival, sh.lengthMin)
					t.Run(name, func(t *testing.T) {
						body := fmt.Sprintf(
							`{"policy":%q,"region":%q,"length_minutes":%d,"cpus":%d,"arrival_minute":%d,"spot_max_minutes":%d}`,
							pol, region, sh.lengthMin, sh.cpus, arrival, sh.spotMax)
						resp, raw := postJSON(t, ts.URL+"/v1/advise", body)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
						}

						// Reconstruct the normalized request the handler saw.
						req := AdviseRequest{
							Policy: pol, Region: region,
							AdviseJob: AdviseJob{
								LengthMinutes: sh.lengthMin, CPUs: sh.cpus,
								ArrivalMinute: arrival, SpotMaxMinutes: sh.spotMax,
							},
						}
						one := AdviseBatchRequest{Policy: req.Policy, Region: req.Region, Jobs: []AdviseJob{req.AdviseJob}}
						if _, _, err := s.normalizeAdvise(&one); err != nil {
							t.Fatalf("normalize: %v", err)
						}
						req.AdviseJob = one.Jobs[0]
						tr := s.regions[req.Region]
						dec := offlineDecide(tr, req)
						want, err := json.Marshal(offlineResponse(tr, req, dec))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(raw, want) {
							t.Fatalf("served body differs from offline policy path\nserved:  %s\noffline: %s", raw, want)
						}
					})
				}
			}
		}
	}
}
