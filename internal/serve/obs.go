package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"github.com/carbonsched/gaia/internal/stats"
)

// defaultLatencyBounds is the request-latency bucket ladder: 1 ms to
// ~8 s in powers of two, wide enough to straddle both the microsecond
// advise path and multi-second cold simulations.
var defaultLatencyBounds = stats.ExponentialBounds(0.001, 2, 14)

// observer is the server's metrics registry. All counters are cumulative
// since process start; rendering is the Prometheus text exposition format
// with deterministically sorted label sets, so scrapes (and tests) see a
// stable layout. Gauges are sampled at render time via callbacks, which
// keeps hot paths free of gauge bookkeeping.
type observer struct {
	mu       sync.Mutex
	requests map[reqKey]int64
	latency  map[string]*stats.CumulativeHistogram // endpoint → seconds
	cache    map[string]int64                      // runcache outcome → count

	gaugesMu sync.Mutex
	gauges   []gauge
}

type reqKey struct {
	endpoint string
	code     int
}

type gauge struct {
	name, help string
	sample     func() float64
}

func newObserver() *observer {
	return &observer{
		requests: make(map[reqKey]int64),
		latency:  make(map[string]*stats.CumulativeHistogram),
		cache:    make(map[string]int64),
	}
}

// observe records one finished request: its endpoint, HTTP status and
// wall-clock seconds.
func (o *observer) observe(endpoint string, code int, seconds float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.requests[reqKey{endpoint, code}]++
	h := o.latency[endpoint]
	if h == nil {
		h = stats.MustCumulativeHistogram(defaultLatencyBounds...)
		o.latency[endpoint] = h
	}
	h.Observe(seconds)
}

// observeCache records one runcache outcome from /v1/simulate.
func (o *observer) observeCache(outcome string) {
	o.mu.Lock()
	o.cache[outcome]++
	o.mu.Unlock()
}

// registerGauge adds a sampled-at-scrape-time gauge.
func (o *observer) registerGauge(name, help string, sample func() float64) {
	o.gaugesMu.Lock()
	o.gauges = append(o.gauges, gauge{name: name, help: help, sample: sample})
	o.gaugesMu.Unlock()
}

// render writes the Prometheus text exposition of every metric. Label
// sets are emitted in sorted order and histograms are snapshotted under
// the lock, so a scrape racing live traffic still sees each histogram's
// buckets, sum and count mutually consistent.
func (o *observer) render(w io.Writer) {
	o.mu.Lock()
	reqs := make([]reqKey, 0, len(o.requests))
	for k := range o.requests {
		reqs = append(reqs, k)
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].endpoint != reqs[j].endpoint {
			return reqs[i].endpoint < reqs[j].endpoint
		}
		return reqs[i].code < reqs[j].code
	})
	reqCounts := make([]int64, len(reqs))
	for i, k := range reqs {
		reqCounts[i] = o.requests[k]
	}
	endpoints := make([]string, 0, len(o.latency))
	for ep := range o.latency {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	hists := make([]stats.CumulativeHistogram, len(endpoints))
	for i, ep := range endpoints {
		hists[i] = o.latency[ep].Snapshot()
	}
	outcomes := make([]string, 0, len(o.cache))
	for oc := range o.cache {
		outcomes = append(outcomes, oc)
	}
	sort.Strings(outcomes)
	cacheCounts := make([]int64, len(outcomes))
	for i, oc := range outcomes {
		cacheCounts[i] = o.cache[oc]
	}
	o.mu.Unlock()

	fmt.Fprintf(w, "# HELP gaia_serve_requests_total Finished HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE gaia_serve_requests_total counter\n")
	for i, k := range reqs {
		fmt.Fprintf(w, "gaia_serve_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, reqCounts[i])
	}

	fmt.Fprintf(w, "# HELP gaia_serve_request_seconds Request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE gaia_serve_request_seconds histogram\n")
	for i, ep := range endpoints {
		h := &hists[i]
		bounds := h.Bounds()
		cum := h.Cumulative()
		for j, b := range bounds {
			fmt.Fprintf(w, "gaia_serve_request_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, formatFloat(b), cum[j])
		}
		fmt.Fprintf(w, "gaia_serve_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, h.Count())
		fmt.Fprintf(w, "gaia_serve_request_seconds_sum{endpoint=%q} %s\n", ep, formatFloat(h.Sum()))
		fmt.Fprintf(w, "gaia_serve_request_seconds_count{endpoint=%q} %d\n", ep, h.Count())
	}

	fmt.Fprintf(w, "# HELP gaia_serve_simulate_cache_total Simulation requests by runcache outcome.\n")
	fmt.Fprintf(w, "# TYPE gaia_serve_simulate_cache_total counter\n")
	var leaders, joined int64
	for i, oc := range outcomes {
		fmt.Fprintf(w, "gaia_serve_simulate_cache_total{outcome=%q} %d\n", oc, cacheCounts[i])
		if oc == "dedup" {
			joined += cacheCounts[i]
		} else {
			leaders += cacheCounts[i]
		}
	}
	// A request that joined another's computation of its cell is a dedup;
	// every other outcome led its own.
	fmt.Fprintf(w, "# HELP gaia_serve_coalesce_total Simulate requests by coalescing role.\n")
	fmt.Fprintf(w, "# TYPE gaia_serve_coalesce_total counter\n")
	fmt.Fprintf(w, "gaia_serve_coalesce_total{role=\"leader\"} %d\n", leaders)
	fmt.Fprintf(w, "gaia_serve_coalesce_total{role=\"joined\"} %d\n", joined)

	o.gaugesMu.Lock()
	gauges := append([]gauge(nil), o.gauges...)
	o.gaugesMu.Unlock()
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n", g.name, g.help)
		fmt.Fprintf(w, "# TYPE %s gauge\n", g.name)
		fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.sample()))
	}
}

// formatFloat renders a float the way Prometheus clients conventionally
// do: shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
