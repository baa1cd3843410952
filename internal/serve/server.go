// Package serve is gaia-serve's HTTP layer: a long-running advisory
// service that answers online scheduling queries (POST /v1/advise) and
// full what-if simulations (POST /v1/simulate) over the same substrates
// the offline tools use — the policy implementations, the per-trace
// carbon oracle tables (built once at startup and shared immutably by
// every request), and the content-addressed run cache.
//
// The serving behaviors the offline tools never needed live here:
//
//   - Admission control: a bounded queue in front of the work endpoints
//     sheds load with 429 + Retry-After instead of building an unbounded
//     backlog (admission.go).
//   - One computation per cell: identical in-flight /v1/simulate cells
//     share one run-cache flight, which a disconnecting client cancels
//     only when nobody else waits on it (internal/runcache).
//   - Deadlines that mean it: per-endpoint timeouts propagate through
//     context into the simulator's event loop, which actually stops.
//   - Graceful drain: SIGTERM stops admissions (queued requests shed
//     with 503), lets in-flight work finish, then closes the listener.
//   - Observability: GET /metrics (Prometheus text) and GET /healthz.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cell"
	"github.com/carbonsched/gaia/internal/experiments"
	"github.com/carbonsched/gaia/internal/fleet"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Config tunes one Server. The zero value serves with the documented
// defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe; default ":8404".
	Addr string
	// TraceDays is the advisory horizon: each region's carbon trace
	// covers TraceDays plus cell.SlackDays from minute 0. Default 14.
	TraceDays int
	// MaxConcurrent bounds requests doing work at once; default 4.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a work slot beyond
	// MaxConcurrent; the rest are shed with 429. Default 64.
	QueueDepth int
	// AdviseTimeout / BatchTimeout / SimulateTimeout cap one request's
	// total time in the respective handler, queueing included.
	// Defaults 2s / 30s / 120s.
	AdviseTimeout   time.Duration
	BatchTimeout    time.Duration
	SimulateTimeout time.Duration
	// RetryAfter is the hint attached to shed responses; default 1s. For
	// 429 sheds it is the floor (and the no-data fallback) of an adaptive
	// hint derived from the observed queue drain rate; 503 drain sheds
	// use it as-is, since the answer there is "go elsewhere".
	RetryAfter time.Duration
	// CacheDir attaches runcache's disk tier when non-empty, so warm
	// simulation cells survive restarts.
	CacheDir string
	// Logf receives operational diagnostics; default log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8404"
	}
	if c.TraceDays <= 0 {
		c.TraceDays = 14
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.AdviseTimeout <= 0 {
		c.AdviseTimeout = 2 * time.Second
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 30 * time.Second
	}
	if c.SimulateTimeout <= 0 {
		c.SimulateTimeout = 120 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is one gaia-serve instance. Create with New; all methods are
// safe for concurrent use.
type Server struct {
	cfg Config

	// regions holds the advisory carbon traces, one per built-in region,
	// generated once at startup. Traces and their lazily-extended oracle
	// tables are immutable and shared by every request.
	regions    map[string]*carbon.Trace
	regionList []TraceInfo

	adm *admission
	obs *observer
	// cache serves /v1/simulate and is this replica's shard of the fleet
	// cache tier, served on /v1/cache/* whether or not ConfigureFleet has
	// run.
	cache *runcache.Cache

	traces cell.Memo // /v1/simulate's traces, shared by recipe

	mux     *http.ServeMux
	httpSrv *http.Server

	// simGate, when non-nil, holds each admitted simulate request until
	// the channel is closed or the request's deadline passes. Test hook
	// for deterministic drain, shedding and coalescing tests; nil in
	// production.
	simGate chan struct{}
}

// TraceInfo summarizes one advisory region for GET /v1/traces.
type TraceInfo struct {
	Code   string  `json:"code"`
	Name   string  `json:"name"`
	Class  string  `json:"class"`
	Hours  int     `json:"hours"`
	MeanCI float64 `json:"mean_ci_g_per_kwh"`
	MinCI  float64 `json:"min_ci_g_per_kwh"`
	MaxCI  float64 `json:"max_ci_g_per_kwh"`
}

// New builds a ready-to-serve Server: region traces generated, default
// oracle tables prewarmed in parallel, routes registered.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		regions: make(map[string]*carbon.Trace),
		adm:     newAdmission(cfg.QueueDepth, cfg.MaxConcurrent),
		obs:     newObserver(),
		cache:   runcache.New(),
		mux:     http.NewServeMux(),
	}
	s.cache.Logf = cfg.Logf
	if cfg.CacheDir != "" {
		if err := s.cache.SetDir(cfg.CacheDir); err != nil {
			return nil, err
		}
	}

	// Advice reads the carbon traces of cells over TraceDays, as gaia-sim runs them.
	for _, spec := range carbon.Regions() {
		tr := cell.Spec{Region: spec.Code, Days: cfg.TraceDays}.Carbon()
		s.regions[spec.Code] = tr
		sum := tr.Summary()
		s.regionList = append(s.regionList, TraceInfo{
			Code: spec.Code, Name: spec.Name, Class: spec.Class,
			Hours: tr.Len(), MeanCI: sum.Mean, MinCI: sum.Min, MaxCI: sum.Max,
		})
	}
	sort.Slice(s.regionList, func(i, j int) bool { return s.regionList[i].Code < s.regionList[j].Code })

	// Prewarm the default advisory tables — (W, L) = (6h, 1h) and
	// (24h, 1h) per region — so first requests don't pay the build. Other
	// (W, L) pairs are built lazily by the shared oracle on first use.
	err := par.ForEach(0, s.regionList, func(_ int, info TraceInfo) error {
		o := s.regions[info.Code].Oracle()
		o.Queue(workload.DefaultWaitShort, simtime.Hour)
		o.Queue(workload.DefaultWaitLong, simtime.Hour)
		return nil
	})
	if err != nil {
		return nil, err
	}

	s.routes()
	s.httpSrv = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}

	s.obs.registerGauge("gaia_serve_queue_depth",
		"Requests waiting for a work slot.", func() float64 { return float64(s.adm.queued()) })
	s.obs.registerGauge("gaia_serve_inflight",
		"Requests currently doing work.", func() float64 { return float64(s.adm.running()) })
	s.obs.registerGauge("gaia_serve_service_time_ewma_seconds",
		"Moving average of admitted-request service time feeding Retry-After.",
		func() float64 { return s.adm.serviceTime().Seconds() })
	s.obs.registerGauge("gaia_serve_cache_shard_entries",
		"Entries held in memory by the run cache, this replica's shard of the fleet cache tier.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	s.obs.registerGauge("gaia_serve_cache_shard_bytes",
		"Bytes charged to the run cache's memory budget, this replica's shard of the fleet cache tier.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	return s, nil
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/advise", s.instrument("advise", s.handleAdvise))
	s.mux.Handle("POST /v1/advise/batch", s.instrument("advise_batch", s.handleAdviseBatch))
	s.mux.Handle("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.Handle("GET /v1/traces", s.instrument("traces", s.handleTraces))
	s.mux.Handle("GET /v1/experiments", s.instrument("experiments", s.handleExperiments))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Fleet cache-tier shard protocol (GET/PUT /v1/cache/{fp}). Peer
	// traffic, not client traffic: it skips admission on purpose — a
	// saturated replica that sheds its peers' cache lookups would convert
	// its own overload into fleet-wide recomputes.
	fleet.NewCacheServer(s.cache).Register(s.mux)
}

// Handler exposes the route tree (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe blocks serving on cfg.Addr until Shutdown or failure,
// mirroring net/http semantics (returns http.ErrServerClosed after a
// clean shutdown).
func (s *Server) ListenAndServe() error { return s.httpSrv.ListenAndServe() }

// Serve blocks serving on l; same contract as ListenAndServe.
func (s *Server) Serve(l net.Listener) error { return s.httpSrv.Serve(l) }

// Shutdown drains the server: admissions stop immediately (queued
// requests shed with 503), in-flight requests run to completion, and the
// listener closes once they have — or when ctx expires, whichever comes
// first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.adm.startDrain()
	return s.httpSrv.Shutdown(ctx)
}

// instrument wraps a handler with request accounting: every response's
// endpoint, status code and latency feed /metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.obs.observe(endpoint, sw.status(), time.Since(start).Seconds())
	})
}

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// admit runs the admission gate for one work request and translates
// shedding into the HTTP contract: 429 + Retry-After for a full queue,
// 503 + Retry-After while draining. ok=false means the response has been
// written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.adm.acquire(r.Context())
	switch {
	case err == nil:
		return release, true
	case errors.Is(err, errQueueFull):
		// The hint adapts to the observed drain rate: a backlog of quick
		// advisory calls asks the client back almost immediately, a backlog
		// of simulations pushes it out accordingly (admission.retryAfter).
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.adm.retryAfter(s.cfg.RetryAfter))))
		writeError(w, http.StatusTooManyRequests, "admission queue full, retry later")
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	default: // client went away while queued
		writeError(w, http.StatusServiceUnavailable, "request canceled while queued")
	}
	return nil, false
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdviseTimeout)
	defer cancel()

	// One job is a batch of one: the same pooled scratch, strict decoder
	// (batchdec.go) and normalization as /v1/advise/batch, and the body is
	// rendered by the hand encoder (jsonenc.go), which the differential and
	// fuzz tests pin byte-identical to writeJSON's json.Marshal.
	sc := adviseScratchPool.Get().(*adviseScratch)
	defer adviseScratchPool.Put(sc)
	var t adviseTarget
	body, err := readBody(&sc.body, r.Body, maxAdviseBodyLen)
	if err == nil {
		err = decodeAdviseBytes(&sc.dec, body, &sc.batch)
	}
	if err == nil {
		t, _, err = s.normalizeAdvise(&sc.batch)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := adviseInto(&t, &sc.batch.Jobs[0], sc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "deadline exceeded")
		return
	}
	sc.buf = appendAdviseResponse(sc.buf[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.buf)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SimulateTimeout)
	defer cancel()
	if s.simGate != nil {
		select {
		case <-s.simGate:
		case <-ctx.Done(): // RunContext then starts nothing and returns ctx.Err()
		}
	}

	buf := simulateBodies.Get().(*[]byte)
	defer simulateBodies.Put(buf)
	var spec cell.Spec
	body, err := readBody(buf, r.Body, maxAdviseBodyLen)
	if err == nil {
		spec, err = simulateCell(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	resp, err := s.simulate(ctx, spec)
	if err != nil {
		code := http.StatusInternalServerError
		msg := err.Error()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code = http.StatusServiceUnavailable
			msg = "simulation did not finish in time"
		}
		writeError(w, code, msg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.regionList})
}

// handleExperiments lists the offline experiment catalog, so a service
// client can discover which paper figures gaia-lab can regenerate.
func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type expInfo struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	all := experiments.All()
	infos := make([]expInfo, len(all))
	for i, e := range all {
		infos[i] = expInfo{ID: e.ID, Title: e.Title}
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": infos})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.render(w)
	// Counters owned by the admission gate are rendered from its own
	// state rather than mirrored into the observer.
	full, drain := s.adm.sheds()
	fmt.Fprintf(w, "# HELP gaia_serve_shed_total Requests shed by the admission gate, by reason.\n")
	fmt.Fprintf(w, "# TYPE gaia_serve_shed_total counter\n")
	fmt.Fprintf(w, "gaia_serve_shed_total{reason=\"queue_full\"} %d\n", full)
	fmt.Fprintf(w, "gaia_serve_shed_total{reason=\"draining\"} %d\n", drain)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.adm.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "regions": len(s.regionList)})
}

// writeJSON emits v as a compact JSON body. Marshal-then-write (rather
// than streaming) keeps bodies byte-deterministic for the differential
// tests and avoids half-written responses on encode errors.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}
