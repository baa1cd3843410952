package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/carbonsched/gaia/internal/serve"
)

// serveScale holds the serve-mix constants. The rates are frozen.
//
// The bounded numbers come from the closed loop, each round scaled by its
// own bare round trips (startEcho); the fixed-rate open loop is recorded
// unbounded. At a fixed rate the cores idle between requests, and an
// advise round trip (about 10 µs of handler work) is mostly the machine
// waking the server and the sender, which neighbours on a shared VM slow by
// varying amounts: the open-loop advise p90 spread 0.3–0.5 of its median
// over ten runs. Each sender also has one connection, so in the open loop
// a request due while a computed simulate is out on it waits for that one;
// at 5000 req/s about a tenth of the advise requests waited so, which put
// the p90 on the edge of that group, hence 2500 req/s.
type serveScale struct {
	lowRate, highRate float64       // req/s of the two fixed-rate phases
	lowShare          float64       // share of the measuring time at the low rate
	highShare         float64       // share at the high rate
	closedShare       float64       // share in the closed loop; the ladder gets the rest
	rounds            int           // rounds the closed loop is split into
	ladderFactor      float64       // each ladder step's rate over the previous one
	refine            int           // bisection steps after the ladder's first failure
	step              time.Duration // length of one ladder step
	probePhase        time.Duration // low phase of the serve probe; its high phase is twice as long
	poolCells         int           // distinct simulate cells that repeat
	batchJobs         int           // jobs per /v1/advise/batch request
	simJobs, simDays  int           // size of every simulate cell
	sampleAdvise      int           // advise answers checked byte for byte
	limit             time.Duration
}

func fullServeScale() serveScale {
	return serveScale{
		lowRate: 1000, highRate: 2500,
		lowShare: 0.1, highShare: 0.25, closedShare: 0.35, rounds: 8,
		ladderFactor: 1.25, refine: 3, step: time.Second,
		probePhase: time.Second,
		poolCells:  32, batchJobs: 64,
		simJobs: 400, simDays: 3,
		sampleAdvise: 64,
		limit:        10 * time.Millisecond,
	}
}

type reqKind int

const (
	kindAdvise reqKind = iota
	kindBatch
	kindSimulate
	numKinds
)

var (
	kindPath = [numKinds]string{"/v1/advise", "/v1/advise/batch", "/v1/simulate"}
	kindName = [numKinds]string{"advise", "batch", "simulate"}
)

// request is one prepared HTTP request of the mix.
type request struct {
	kind  reqKind
	body  []byte
	fresh bool // a simulate of a never-seen seed: must be computed
}

// arrival is a request due at an offset from its phase's start.
type arrival struct {
	at     time.Duration
	req    *request
	sample bool // keep the answer for the byte-identity check
}

var (
	regions  = []string{"CA-US", "KY-US", "NL", "ON-CA", "SA-AU", "SE"}
	policies = []string{"carbon-time", "wait-awhile", "lowest-window", "nowait"}
)

// mix draws the serve-mix request stream from the seed: 80% single
// advise, 10% batch advise of batchJobs jobs, 10% simulate. Of the
// simulates, every fifth is a Carbon-Time cell of a seed never used before
// and the others one of poolCells repeating cells. A computed simulate
// takes about thirty times as long as a cache hit, so the simulate median
// is a hit and the p90 the middle of the computed ones. With 1 in 10
// fresh, drawn at random, the p90 sat on the edge between hits and
// computes and swung with how many fresh seeds a run happened to draw; and
// a Wait-AWhile cell computes in about 1.7 times a Carbon-Time one, so
// mixing the two put the middle of the computed ones on another edge.
type mix struct {
	sc     serveScale
	rng    *rand.Rand
	advise []*request
	batch  []*request
	pool   []*request
	seed   int64
	sims   int64 // simulates drawn
}

func newMix(seed int64, sc serveScale) *mix {
	m := &mix{sc: sc, rng: rand.New(rand.NewSource(seed)), seed: seed}
	for i := 0; i < 4096; i++ {
		m.advise = append(m.advise, &request{kind: kindAdvise, body: m.adviseBody()})
	}
	for i := 0; i < 64; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, `{"policy":%q,"region":%q,"jobs":[`, policies[m.rng.Intn(2)], regions[m.rng.Intn(len(regions))])
		for j := 0; j < sc.batchJobs; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"length_minutes":%d,"arrival_minute":%d}`, 15+m.rng.Intn(600), m.rng.Intn(13*1440))
		}
		b.WriteString(`]}`)
		m.batch = append(m.batch, &request{kind: kindBatch, body: []byte(b.String())})
	}
	for i := 0; i < sc.poolCells; i++ {
		m.pool = append(m.pool, &request{kind: kindSimulate, body: m.simulateBody(i%2, i%len(regions), seed*1_000_000+int64(i))})
	}
	return m
}

func (m *mix) adviseBody() []byte {
	return []byte(fmt.Sprintf(`{"policy":%q,"region":%q,"length_minutes":%d,"cpus":%d,"arrival_minute":%d}`,
		policies[m.rng.Intn(len(policies))], regions[m.rng.Intn(len(regions))],
		15+m.rng.Intn(600), 1+m.rng.Intn(8), m.rng.Intn(13*1440)))
}

func (m *mix) simulateBody(pol, region int, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"policy":%q,"region":%q,"jobs":%d,"days":%d,"seed":%d,"reserved":%d}`,
		policies[pol], regions[region], m.sc.simJobs, m.sc.simDays, seed, 10*(int(seed)%4)))
}

// next draws one request.
func (m *mix) next() *request {
	switch u := m.rng.Float64(); {
	case u < 0.8:
		return m.advise[m.rng.Intn(len(m.advise))]
	case u < 0.9:
		return m.batch[m.rng.Intn(len(m.batch))]
	}
	m.sims++
	if m.sims%5 != 0 {
		return m.pool[m.rng.Intn(len(m.pool))]
	}
	// Fresh seeds sit far above the pool's, so no run repeats one.
	seed := m.seed*1_000_000 + 500_000 + m.sims
	return &request{kind: kindSimulate, fresh: true, body: m.simulateBody(0, m.rng.Intn(len(regions)), seed)}
}

// schedule draws open-loop Poisson arrivals at rate req/s over d. The
// first sampleAdvise advise arrivals are marked for the identity check
// when sample is set.
func (m *mix) schedule(rate float64, d time.Duration, sample bool) []arrival {
	var out []arrival
	kept := 0
	for at := time.Duration(0); ; {
		at += time.Duration(m.rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return out
		}
		a := arrival{at: at, req: m.next()}
		if sample && a.req.kind == kindAdvise && kept < m.sc.sampleAdvise {
			a.sample = true
			kept++
		}
		out = append(out, a)
	}
}

// phase is the outcome of one open-loop phase or closed-loop round.
type phase struct {
	lat       [numKinds]samples // ms from each request's due time (open loop) or send (closed loop)
	late      samples           // open loop: ms each send started after its due time
	echo      samples           // closed loop: ms of each bare round trip
	busy      time.Duration     // closed loop: the senders' time on the mix's requests, summed
	scheduled int
	completed int
	errs      []error // one per failed arrival, nil entries omitted
	kept      []keptAnswer
	spans     []span
}

type keptAnswer struct{ body, answer []byte }

// openLoop sends the arrivals on schedule from len(clients) senders, one
// connection each; arrival i goes to sender i mod len(clients). Latency is
// timed from the due time as a punctual sender would see it: a request
// starts at its due time, or when the previous request on its connection
// is answered if that is later, and then takes as long as it took. So a
// stall delays every later request on the connection, while the sender's
// own wake-up delay does not count: sleeping until the due time overshoots
// by about half a millisecond on a shared machine, several times an advise
// round trip, and by a different amount from run to run. That delay is
// the late samples. An arrival not sent by the phase's end plus grace is
// lost and counts as failed. check vets each answer.
func openLoop(clients []*http.Client, base string, sched []arrival, end, grace time.Duration,
	check func(*request, int, []byte) error, tr *tracer, parent int) *phase {
	n := len(clients)
	parts := make([]*phase, n)
	start := time.Now()
	deadline := start.Add(end + grace)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			p := &phase{}
			parts[s] = p
			var q punctual
			for i := s; i < len(sched); i += n {
				a := sched[i]
				p.scheduled++
				due := start.Add(a.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if sent.After(deadline) {
					p.lat[a.req.kind].fail()
					p.errs = append(p.errs, fmt.Errorf("%s due at %v never sent: the phase ended", kindName[a.req.kind], a.at))
					continue
				}
				p.late.add(ms(sent.Sub(due)))
				status, body, err := post(clients[s], base+kindPath[a.req.kind], a.req.body)
				done := time.Now()
				lat := q.latency(a.at, done.Sub(sent))
				if err == nil {
					err = check(a.req, status, body)
				}
				if err != nil {
					p.lat[a.req.kind].fail()
					p.errs = append(p.errs, err)
					continue
				}
				p.completed++
				p.lat[a.req.kind].add(ms(lat))
				if a.sample {
					p.kept = append(p.kept, keptAnswer{a.req.body, body})
				}
				if tr.on {
					p.spans = append(p.spans, tr.leaf(parent, "serve."+kindName[a.req.kind], sent, done))
				}
			}
		}(s)
	}
	wg.Wait()
	return merge(parts)
}

// punctual follows one connection of a sender that sends every request at
// its due time, or as soon as the previous one is answered.
type punctual struct {
	free time.Duration // when the connection is next free, from the phase's start
}

// latency takes a request due at offset due whose round trip took rtt and
// returns its time from due to answer.
func (q *punctual) latency(due, rtt time.Duration) time.Duration {
	if q.free < due {
		q.free = due
	}
	q.free += rtt
	return q.free - due
}

// merge joins the senders' parts of one phase.
func merge(parts []*phase) *phase {
	out := &phase{}
	for _, p := range parts {
		for k := range out.lat {
			out.lat[k].vals = append(out.lat[k].vals, p.lat[k].vals...)
		}
		out.late.vals = append(out.late.vals, p.late.vals...)
		out.echo.vals = append(out.echo.vals, p.echo.vals...)
		out.busy += p.busy
		out.scheduled += p.scheduled
		out.completed += p.completed
		out.errs = append(out.errs, p.errs...)
		out.kept = append(out.kept, p.kept...)
		out.spans = append(out.spans, p.spans...)
	}
	return out
}

// closedLoop sends requests of the mix back to back from every client
// for d, each sender waiting for its answer before the next request, and
// times each from send to answer. After each one the sender makes a bare
// round trip to echoURL and times that too, so the round trips see the
// machine as the requests did. nproc connections over the time they spent
// on the mix is the throughput they can draw.
func closedLoop(clients []*http.Client, base, echoURL string, m *mix, d time.Duration,
	check func(*request, int, []byte) error) *phase {
	var mu sync.Mutex
	next := func() *request {
		mu.Lock()
		defer mu.Unlock()
		return m.next()
	}
	parts := make([]*phase, len(clients))
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			p := &phase{}
			parts[i] = p
			for time.Now().Before(end) {
				r := next()
				p.scheduled++
				sent := time.Now()
				status, body, err := post(c, base+kindPath[r.kind], r.body)
				done := time.Now()
				p.busy += done.Sub(sent)
				if err == nil {
					err = check(r, status, body)
				}
				if err != nil {
					p.lat[r.kind].fail()
					p.errs = append(p.errs, err)
				} else {
					p.completed++
					p.lat[r.kind].add(ms(done.Sub(sent)))
				}
				if _, _, err := post(c, echoURL, echoBody); err != nil {
					p.errs = append(p.errs, fmt.Errorf("echo round trip: %w", err))
					continue
				}
				p.echo.add(ms(time.Since(done)))
			}
		}(i, c)
	}
	wg.Wait()
	return merge(parts)
}

// refEchoMS is the median bare round trip of the closed loop on the 2-core
// machine the bounds in BENCHMARK.json were set on.
const refEchoMS = 0.07

var echoBody = []byte(`{"policy":"carbon-time","region":"SE","length_minutes":60}`)

// startEcho starts the closed loop's reference: a bare net/http server
// of this program's own that reads each request and answers {}. No change
// to the code under test can move its round trip, while the machine's
// wake-ups, loopback and scheduling costs move it as they move every
// request to the server.
func startEcho() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("{}"))
	}))
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// newClients returns n HTTP clients, each limited to one connection.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// checkAnswer vets one serve-mix answer: 200, a batch answers every job,
// a fresh simulate really computed, and a pool cell (primed in setup) is
// served from the cache.
func checkAnswer(jobsPerBatch int) func(*request, int, []byte) error {
	return func(r *request, status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %.120s", kindName[r.kind], status, body)
		}
		switch r.kind {
		case kindBatch:
			if got := bytes.Count(body, []byte("\n")); got != jobsPerBatch {
				return fmt.Errorf("batch: %d answer lines for %d jobs", got, jobsPerBatch)
			}
		case kindSimulate:
			outcome := bytes.Contains(body, []byte(`"cache_outcome":"computed"`))
			if r.fresh && !outcome {
				return fmt.Errorf("simulate of a fresh seed was not computed: %.200s", body)
			}
			if !r.fresh && !bytes.Contains(body, []byte(`"cache_outcome":"hit"`)) &&
				!bytes.Contains(body, []byte(`"cache_outcome":"dedup"`)) {
				return fmt.Errorf("simulate of a pool cell was not a cache hit: %.200s", body)
			}
		}
		return nil
	}
}

// server is a serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	base string
	done chan error
}

func startServer() (*server, error) {
	srv, err := serve.New(serve.Config{Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// prime answers one request of each kind per advise body shape and
// computes every pool cell, so the measured phases see warm tables and a
// primed cache.
func prime(s *server, clients []*http.Client, m *mix) error {
	reqs := append([]*request{m.advise[0], m.batch[0]}, m.pool...)
	for _, pol := range policies {
		for _, reg := range regions {
			body := fmt.Sprintf(`{"policy":%q,"region":%q,"length_minutes":60}`, pol, reg)
			reqs = append(reqs, &request{kind: kindAdvise, body: []byte(body)})
		}
	}
	for _, r := range reqs {
		status, body, err := post(clients[0], s.base+kindPath[r.kind], r.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming %s: status %d: %s", kindName[r.kind], status, body)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkKept compares each kept advise answer with the in-process
// handler's answer to the same body, byte for byte.
func checkKept(s *server, kept []keptAnswer) error {
	for _, k := range kept {
		rec := httptest.NewRecorder()
		s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(k.body)))
		if !bytes.Equal(rec.Body.Bytes(), k.answer) {
			return fmt.Errorf("advise answer over HTTP differs from the in-process handler's for %s", k.body)
		}
	}
	return nil
}

// phaseRun runs one fixed-rate phase against s under a span and returns
// its outcome.
func phaseRun(e *env, s *server, clients []*http.Client, m *mix, name string, rate float64, d time.Duration, sample bool) *phase {
	sched := m.schedule(rate, d, sample)
	var p *phase
	e.tr.do(name, int64(len(sched)), func() error {
		p = openLoop(clients, s.base, sched, d, grace(d), checkAnswer(m.sc.batchJobs), e.tr, e.tr.current())
		e.tr.adopt(p.spans)
		return nil
	})
	return p
}

// grace is how long after a phase's last due time its stragglers may
// still be sent.
func grace(d time.Duration) time.Duration {
	if g := d / 4; g < time.Second {
		return g
	}
	return time.Second
}

// account counts a phase's arrivals as operations: each lost, refused or
// wrong answer is a failed one.
func account(r *report, p *phase) {
	for i := 0; i < p.completed; i++ {
		r.op(nil)
	}
	for _, err := range p.errs {
		r.op(err)
	}
}

// passes reports whether a ladder step met the limits: advise p99 and
// sender lateness p99 within the limit, and at least 99% of the scheduled
// requests answered correctly. why says which limit a failing step broke.
func passes(p *phase, limit time.Duration) (ok bool, why string) {
	lim := ms(limit)
	switch adv, late := p.lat[kindAdvise].percentile(0.99), p.late.percentile(0.99); {
	case p.scheduled == 0:
		return false, "nothing scheduled"
	case adv > lim:
		return false, fmt.Sprintf("advise p99 %.3gms", adv)
	case late > lim:
		return false, fmt.Sprintf("sender late p99 %.3gms", late)
	case float64(p.completed) < 0.99*float64(p.scheduled):
		return false, fmt.Sprintf("%d of %d answered", p.completed, p.scheduled)
	}
	return true, ""
}

// ladder finds the highest rate that passes: it raises the rate from
// start by factor per step until a step fails, then bisects (geometric
// midpoints) between the last passing and the failing rate for refine
// steps. It runs at most maxSteps steps and returns the highest rate that
// passed (0 if none did) and how many steps ran.
func ladder(start, factor float64, refine, maxSteps int, step func(rate float64) bool) (best float64, steps int) {
	rate, failed := start, 0.0
	for steps < maxSteps && failed == 0 {
		steps++
		if step(rate) {
			best = rate
			rate *= factor
		} else {
			failed = rate
		}
	}
	for i := 0; i < refine && steps < maxSteps && best > 0 && failed > 0; i++ {
		steps++
		mid := math.Sqrt(best * failed)
		if step(mid) {
			best = mid
		} else {
			failed = mid
		}
	}
	return best, steps
}

// runServeMix is the serve-mix workload: serve.New on a loopback
// listener, driven open-loop by at most nproc senders over as many
// connections, then in a closed loop over the same connections. op is
// advise and op2 simulate latency in the closed loop, rate_per_s its
// throughput; each is the median over rounds at the reference round-trip
// speed.
func runServeMix(e *env) error {
	sc := e.sc.serve
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)
	m := newMix(e.seed, sc)
	var s *server
	err := e.setup(func() error {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
			closeClients(clients)
		}
		var err error
		if s, err = startServer(); err != nil {
			return err
		}
		return prime(s, clients, m)
	})
	if err != nil {
		return err
	}
	defer s.stop()

	// Calibration samples are taken between phases, never during one, so
	// the kernel does not compete with the senders, and after a collection,
	// so it does not compete with the phase's leftover garbage either.
	calibrate := func(n int) {
		runtime.GC()
		for i := 0; i < n; i++ {
			e.cal.sample()
		}
	}
	secs := e.seconds
	calibrate(3)
	low := phaseRun(e, s, clients, m, "serve-mix.low", sc.lowRate, time.Duration(float64(secs)*sc.lowShare), false)
	calibrate(2)
	highTime := time.Duration(float64(secs) * sc.highShare)
	high := phaseRun(e, s, clients, m, "serve-mix.high", sc.highRate, highTime, true)
	calibrate(2)
	account(e.rep, low)
	account(e.rep, high)
	e.rep.op(checkKept(s, high.kept))
	adv, sim := &high.lat[kindAdvise], &high.lat[kindSimulate]
	e.rep.set("advise_ms.p50", "ms", adv.median(), "open loop, high phase")
	e.rep.set("advise_ms.p99", "ms", adv.percentile(0.99), "open loop, high phase")
	e.rep.set("simulate_ms.p50", "ms", sim.median(), "open loop, high phase")
	e.rep.set("simulate_ms.p99", "ms", sim.percentile(0.99), "open loop, high phase")
	e.rep.set("mem_mb", "MB", liveHeapMB(s), "post-GC heap after the fixed-rate phases, server live")

	if e.traced {
		// The same phase again with spans off gives the tracing overhead.
		e.tr.on = false
		plain := phaseRun(e, s, clients, m, "serve-mix.high", sc.highRate, highTime, false)
		e.tr.on = true
		account(e.rep, plain)
		e.overhead(&tracePair{high.lat[kindAdvise], plain.lat[kindAdvise]})
		return nil
	}

	// Each closed-loop round is scaled by its own echo factor. The CPU
	// kernel does not track these round trips: they are mostly the
	// machine's wake-up and loopback time, which neighbours on a shared
	// host slow by other amounts than they slow computation.
	echo := startEcho()
	defer echo.Close()
	roundTime := time.Duration(float64(secs)*sc.closedShare) / time.Duration(sc.rounds)
	var advise, simulate, adviseRaw, simulateRaw []*samples
	var rates, ratesRaw []float64
	for i := 0; i < sc.rounds; i++ {
		var c *phase
		e.tr.do("serve-mix.closed", 0, func() error {
			c = closedLoop(clients, s.base, echo.URL, m, roundTime, checkAnswer(sc.batchJobs))
			return nil
		})
		account(e.rep, c)
		f := refEchoMS / c.echo.median()
		rate := float64(c.completed*len(clients)) / c.busy.Seconds()
		adviseRaw, simulateRaw = append(adviseRaw, &c.lat[kindAdvise]), append(simulateRaw, &c.lat[kindSimulate])
		advise, simulate = append(advise, c.lat[kindAdvise].scaled(f)), append(simulate, c.lat[kindSimulate].scaled(f))
		ratesRaw, rates = append(ratesRaw, rate), append(rates, rate/f)
		calibrate(1)
	}
	note := fmt.Sprintf("closed loop, %d connections, median of %d rounds", len(clients), sc.rounds)
	rescaled := []string{"op_ms.p50", "op_ms.tail", "op2_ms.p50", "op2_ms.tail", "rate_per_s"}
	e.rep.timing("op_ms", "ms", adviseRaw...)
	e.rep.timing("op2_ms", "ms", simulateRaw...)
	e.rep.set("rate_per_s", "1/s", median(ratesRaw), note)
	for _, name := range rescaled {
		e.rep.keepRaw(name)
	}
	e.rep.timing("op_ms", "ms", advise...)
	e.rep.timing("op2_ms", "ms", simulate...)
	e.rep.set("rate_per_s", "1/s", median(rates), note)
	for _, name := range rescaled {
		e.rep.notes[name] += fmt.Sprintf("; each round at reference round-trip speed (%g ms)", refEchoMS)
	}

	ladderTime := time.Duration(float64(secs) * (1 - sc.lowShare - sc.highShare - sc.closedShare))
	maxSteps := int(ladderTime / (sc.step + grace(sc.step)))
	if maxSteps < 1 {
		maxSteps = 1
	}
	// The high phase was the ladder's first step; the climb starts above it.
	var trail []string
	capacity, steps := ladder(sc.highRate*sc.ladderFactor, sc.ladderFactor, sc.refine, maxSteps, func(rate float64) bool {
		ok, why := passes(phaseRun(e, s, clients, m, "serve-mix.ladder", rate, sc.step, false), sc.limit)
		if ok {
			why = "pass"
		}
		trail = append(trail, fmt.Sprintf("%.0f:%s", rate, why))
		calibrate(1)
		return ok
	})
	if ok, _ := passes(high, sc.limit); capacity == 0 && ok {
		capacity = sc.highRate
	}
	// Reported but not bounded: it did not repeat across sets (README.md).
	e.rep.set("capacity_rps", "1/s", capacity, fmt.Sprintf("%d steps: %s", steps, strings.Join(trail, " ")))
	return nil
}
