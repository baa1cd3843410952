package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// stallServer answers at once, except that a request whose body is
// "stall" holds its connection for d.
func stallServer(d time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if bytes.Equal(body, []byte("stall")) {
			time.Sleep(d)
		}
		w.WriteHeader(http.StatusOK)
	}))
}

func okCheck(*request, int, []byte) error { return nil }

// every builds arrivals every gap, with the one at index stallAt stalling.
func every(n int, gap time.Duration, stallAt int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		body := []byte("go")
		if i == stallAt {
			body = []byte("stall")
		}
		out[i] = arrival{at: time.Duration(i) * gap, req: &request{kind: kindAdvise, body: body}}
	}
	return out
}

// A stall delays every later request on the connection, and the open loop
// must show that delay: latency runs from the due time, not from the send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := stallServer(50 * time.Millisecond)
	defer srv.Close()
	clients := newClients(1)
	defer closeClients(clients)
	sched := every(20, 5*time.Millisecond, 4)
	p := openLoop(clients, srv.URL, sched, 100*time.Millisecond, time.Second, okCheck, newTracer(false, "test"), 0)
	if p.completed != 20 || len(p.errs) != 0 {
		t.Fatalf("completed %d of 20, errors %v", p.completed, p.errs)
	}
	// Arrival 5 was due 5 ms into the 50 ms stall, so it waited ≥ ~45 ms.
	lat := p.lat[kindAdvise].vals
	if lat[5] < 40 {
		t.Fatalf("request due during the stall shows %.1f ms, want ≥ 40 ms from its due time", lat[5])
	}
	if late := p.late.percentile(1); late < 40 {
		t.Fatalf("sender lateness max %.1f ms, want ≥ 40 ms", late)
	}
}

// Arrivals the sender could not send before the phase ended are lost and
// count as failures with an infinite latency.
func TestOpenLoopCountsLostSendsAsFailures(t *testing.T) {
	srv := stallServer(300 * time.Millisecond)
	defer srv.Close()
	clients := newClients(1)
	defer closeClients(clients)
	sched := every(20, 5*time.Millisecond, 0)
	p := openLoop(clients, srv.URL, sched, 100*time.Millisecond, 0, okCheck, newTracer(false, "test"), 0)
	if p.scheduled != 20 || p.completed != 1 {
		t.Fatalf("scheduled %d, completed %d; want 20 and only the stalled one", p.scheduled, p.completed)
	}
	lost := 0
	for _, v := range p.lat[kindAdvise].vals {
		if math.IsInf(v, 1) {
			lost++
		}
	}
	if len(p.errs) != 19 || lost != 19 {
		t.Fatalf("%d errors, %d infinite latencies; want 19 lost sends", len(p.errs), lost)
	}
	if got := p.lat[kindAdvise].median(); !math.IsInf(got, 1) {
		t.Fatalf("median latency %v with 19 of 20 lost, want +Inf", got)
	}
}

// A punctual sender starts each request at its due time or when the
// previous one is answered, whichever is later, so queueing carries over
// and an idle gap resets it.
func TestPunctualLatency(t *testing.T) {
	var q punctual
	steps := []struct{ due, rtt, want time.Duration }{
		{0, 3, 3},  // idle: the round trip alone
		{1, 3, 5},  // due while the first is out: starts at 3
		{2, 1, 5},  // starts at 6
		{20, 2, 2}, // the queue has drained
	}
	for i, s := range steps {
		if got := q.latency(s.due, s.rtt); got != s.want {
			t.Fatalf("request %d: latency %v, want %v", i, got, s.want)
		}
	}
}

func TestLadderStopsAtFirstFailureThenBisects(t *testing.T) {
	var rates []float64
	best, steps := ladder(5500, 1.1, 3, 20, func(r float64) bool {
		rates = append(rates, r)
		return r < 8000
	})
	// 5500, 6050, 6655, 7320.5 pass, 8052.55 fails, then three bisections.
	if steps != 8 || len(rates) != 8 {
		t.Fatalf("ran %d steps (%v), want 8", steps, rates)
	}
	if best < 7320.5 || best >= 8000 {
		t.Fatalf("best = %v, want in [7320.5, 8000)", best)
	}
	for _, r := range rates[5:] {
		if r <= 7320.5 || r >= 8052.55 {
			t.Fatalf("bisection tried %v outside the bracket", r)
		}
	}
}

func TestLadderRespectsMaxSteps(t *testing.T) {
	best, steps := ladder(1000, 2, 3, 4, func(float64) bool { return true })
	if steps != 4 || best != 8000 {
		t.Fatalf("always passing: best %v after %d steps, want 8000 after 4", best, steps)
	}
	best, steps = ladder(1000, 2, 3, 4, func(float64) bool { return false })
	if steps != 1 || best != 0 {
		t.Fatalf("always failing: best %v after %d steps, want 0 after 1", best, steps)
	}
}
