package runcache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
)

// fakeRemote is an in-memory RemoteStore with failure injection, standing
// in for the fleet tier.
type fakeRemote struct {
	mu      sync.Mutex
	m       map[[32]byte][]byte
	getErr  error
	putErr  error
	corrupt bool // serve stored blobs with flipped bytes
	gets    int
	puts    int
}

func newFakeRemote() *fakeRemote { return &fakeRemote{m: make(map[[32]byte][]byte)} }

func (r *fakeRemote) Get(_ context.Context, fp [32]byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gets++
	if r.getErr != nil {
		return nil, r.getErr
	}
	blob, ok := r.m[fp]
	if !ok {
		return nil, nil
	}
	if r.corrupt {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0xFF
		return bad, nil
	}
	return blob, nil
}

func (r *fakeRemote) Put(_ context.Context, fp [32]byte, blob []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts++
	if r.putErr != nil {
		return r.putErr
	}
	r.m[fp] = blob
	return nil
}

// TestRemoteHitAcrossCaches is the tier's core promise: a cell computed
// by one process (cache A) is served to another (cache B) as a remote
// hit, bit-identical to what B would have computed itself.
func TestRemoteHitAcrossCaches(t *testing.T) {
	cfg, jobs := fixture(t)
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	remote := newFakeRemote()

	a := New()
	a.Logf = t.Logf
	a.SetRemote(remote)
	resA, outcome, err := a.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Computed {
		t.Fatalf("replica A outcome = %v, want computed", outcome)
	}
	if remote.puts != 1 {
		t.Fatalf("replica A issued %d remote puts, want 1", remote.puts)
	}
	sameResult(t, resA, want)

	b := New()
	b.Logf = t.Logf
	b.SetRemote(remote)
	resB, outcome, err := b.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != RemoteHit {
		t.Fatalf("replica B outcome = %v, want remote-hit", outcome)
	}
	sameResult(t, resB, want)

	// B's in-memory tier is now warm: the remote is not asked again.
	gets := remote.gets
	if _, outcome, err := b.Run(cfg, jobs); err != nil || outcome != Hit {
		t.Fatalf("replica B second request = (%v, %v), want hit", outcome, err)
	}
	if remote.gets != gets {
		t.Fatalf("warm replica still asked the remote (%d → %d gets)", gets, remote.gets)
	}
}

// TestRemoteHitWarmsDisk pins that a remote hit is written through to the
// local disk tier, so a restarted replica does not re-ask the peer.
func TestRemoteHitWarmsDisk(t *testing.T) {
	cfg, jobs := fixture(t)
	remote := newFakeRemote()

	seed := New()
	seed.Logf = t.Logf
	seed.SetRemote(remote)
	if _, outcome, err := seed.Run(cfg, jobs); err != nil || outcome != Computed {
		t.Fatalf("seed = (%v, %v)", outcome, err)
	}

	dir := t.TempDir()
	b := New()
	b.Logf = t.Logf
	b.SetRemote(remote)
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := b.Run(cfg, jobs); err != nil || outcome != RemoteHit {
		t.Fatalf("replica B = (%v, %v), want remote-hit", outcome, err)
	}

	restarted := New()
	restarted.Logf = t.Logf
	restarted.SetRemote(remote)
	if err := restarted.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	gets := remote.gets
	if _, outcome, err := restarted.Run(cfg, jobs); err != nil || outcome != DiskHit {
		t.Fatalf("restarted replica = (%v, %v), want disk-hit", outcome, err)
	}
	if remote.gets != gets {
		t.Fatal("restarted replica asked the remote despite a warm disk tier")
	}
}

// TestRemoteOutageDegradesToCompute pins the failure contract: a dead or
// erroring tier is logged and the cell recomputes — the request succeeds.
func TestRemoteOutageDegradesToCompute(t *testing.T) {
	cfg, jobs := fixture(t)
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	remote := newFakeRemote()
	remote.getErr = errors.New("connection refused")
	remote.putErr = errors.New("connection refused")

	var logs []string
	c := New()
	c.Logf = func(format string, args ...any) { logs = append(logs, format) }
	c.SetRemote(remote)
	res, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatalf("remote outage surfaced as request error: %v", err)
	}
	if outcome != Computed {
		t.Fatalf("outcome = %v, want computed", outcome)
	}
	sameResult(t, res, want)
	var sawGet, sawPut bool
	for _, l := range logs {
		sawGet = sawGet || strings.Contains(l, "remote get")
		sawPut = sawPut || strings.Contains(l, "remote put")
	}
	if !sawGet || !sawPut {
		t.Fatalf("outage not logged (get=%v put=%v): %q", sawGet, sawPut, logs)
	}
}

// TestRemoteCorruptionDegradesToCompute pins that a tier serving damaged
// blobs costs a recompute, never a wrong or failed answer.
func TestRemoteCorruptionDegradesToCompute(t *testing.T) {
	cfg, jobs := fixture(t)
	want, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	remote := newFakeRemote()
	seed := New()
	seed.Logf = t.Logf
	seed.SetRemote(remote)
	if _, _, err := seed.Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	remote.corrupt = true

	var logged bool
	c := New()
	c.Logf = func(string, ...any) { logged = true }
	c.SetRemote(remote)
	res, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatalf("corrupt remote surfaced as request error: %v", err)
	}
	if outcome != Computed {
		t.Fatalf("outcome = %v, want computed", outcome)
	}
	if !logged {
		t.Fatal("corruption was not logged")
	}
	sameResult(t, res, want)
}

// TestBlobServesDiskEntries: the shard protocol's GET reads the disk tier
// too, so a restarted process (or an entry evicted from memory) serves a
// cell's entry byte for byte, and a damaged entry is a logged miss.
func TestBlobServesDiskEntries(t *testing.T) {
	cfg, jobs := fixture(t)
	fp, _ := cfg.Fingerprint(jobs)
	dir := t.TempDir()
	cold := New()
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cold.Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, fp, accSuffix)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Blob(fp); !bytes.Equal(got, want) {
		t.Fatalf("memory GET: %d bytes, want the %d-byte entry", len(got), len(want))
	}

	restarted := New()
	var logged int
	restarted.Logf = func(string, ...any) { logged++ }
	if err := restarted.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Blob(fp); !bytes.Equal(got, want) {
		t.Fatalf("disk GET: %d bytes, want the %d-byte entry", len(got), len(want))
	}
	if err := os.WriteFile(path, want[:len(want)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Blob(fp); got != nil || logged != 1 {
		t.Fatalf("damaged entry: served %d bytes, logged %d times; want a logged miss", len(got), logged)
	}
	if st := restarted.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit and 1 miss", st)
	}
}
