package workload

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/simtime"
)

// fingerprintFixtures returns a fresh rigid trace and a fresh elastic
// trace, neither fingerprinted yet.
func fingerprintFixtures(t *testing.T) (*Trace, *ElasticTrace) {
	t.Helper()
	tr := AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(11)), 400, simtime.Week)
	specs := make([]ElasticSpec, tr.Len())
	for i := range specs {
		specs[i] = ElasticSpec{MinReplicas: 1, MaxReplicas: 4, Curve: AmdahlCurve(0.1, 4)}
	}
	et, err := NewElasticTrace("elastic", tr.Jobs, specs, []Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return tr, et
}

// awaitFinalizer collects garbage until done closes, failing after a
// bounded number of cycles. A memo that pins its trace keeps done open.
func awaitFinalizer(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("%s: still reachable after being fingerprinted and dropped", what)
}

// TestFingerprintDoesNotRetainTrace: the fingerprint memo lives in the
// trace, so a fingerprinted trace is collected once its last user drops
// it. A process that fingerprints a fresh trace per request (gaia-serve's
// simulate endpoint) would otherwise keep every one of them.
func TestFingerprintDoesNotRetainTrace(t *testing.T) {
	rigid := func() <-chan struct{} {
		tr, _ := fingerprintFixtures(t)
		done := make(chan struct{})
		tr.Fingerprint()
		runtime.SetFinalizer(tr, func(*Trace) { close(done) })
		return done
	}()
	awaitFinalizer(t, "Trace", rigid)

	elastic := func() <-chan struct{} {
		_, et := fingerprintFixtures(t)
		done := make(chan struct{})
		et.Fingerprint()
		runtime.SetFinalizer(et, func(*ElasticTrace) { close(done) })
		return done
	}()
	awaitFinalizer(t, "ElasticTrace", elastic)
}

// TestFingerprintConcurrentFirstUse: goroutines racing to fingerprint one
// fresh trace all get the hash a sequential first use computes (run under
// -race: the memo is published through an atomic pointer).
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	tr, et := fingerprintFixtures(t)
	wantTr, wantEt := func() ([32]byte, [32]byte) {
		tr2, et2 := fingerprintFixtures(t)
		return tr2.Fingerprint(), et2.Fingerprint()
	}()

	const workers = 8
	gotTr := make([][32]byte, workers)
	gotEt := make([][32]byte, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			if g%2 == 0 {
				gotEt[g], gotTr[g] = et.Fingerprint(), tr.Fingerprint()
			} else {
				gotTr[g], gotEt[g] = tr.Fingerprint(), et.Fingerprint()
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	for g := 0; g < workers; g++ {
		if gotTr[g] != wantTr {
			t.Errorf("goroutine %d: Trace fingerprint %x, want %x", g, gotTr[g], wantTr)
		}
		if gotEt[g] != wantEt {
			t.Errorf("goroutine %d: ElasticTrace fingerprint %x, want %x", g, gotEt[g], wantEt)
		}
	}
}
