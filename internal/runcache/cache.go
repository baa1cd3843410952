// Package runcache is a two-tier content-addressed cache for simulation
// results. Tier 1 is an in-memory single-flight map: every core.Run routed
// through a Cache first derives the canonical fingerprint of its inputs
// (core.Config.Fingerprint, which folds in the memoized carbon- and
// workload-trace hashes), and duplicate cells — the same (policy, region,
// workload, reserved, ...) appearing in several figures — wait for the one
// in-flight computation instead of re-running it. That computation runs
// detached from every caller for as long as any caller still waits, so a
// caller that gives up never cancels work another wants, and callers need
// no coalescing of their own around the cache. Completed entries share
// one byte budget and are evicted oldest first (flight.go). Tier 2 is an
// optional on-disk store of encoded accumulators (internal/metrics codec),
// so a warm re-run of the whole figure suite skips simulation entirely,
// and an entry evicted from memory costs a decode instead of a recompute.
// The same store, memory and disk, is this process's shard of the fleet
// tier (remote.go).
//
// Correctness contract: a cached cell is indistinguishable from a
// recomputed one. The cache stores only the immutable streaming
// accumulator; every requester gets a private metrics.Result rebuilt from
// its own canonical config (label, pricing, horizon, region), exactly as
// core.Run would have assembled it. Disk entries are versioned
// (fingerprint layout, codec version, store version all participate in
// the key) and checksummed; any mismatch, truncation or corruption is
// logged and silently recomputed — a bad cache can cost time, never
// correctness.
package runcache

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/workload"
)

// StoreVersion names the on-disk entry format (file naming and contents
// beyond the accumulator codec itself). Bump to orphan all old files.
const StoreVersion = 1

// DefaultMaxBytes is the memory tier's budget unless SetMaxBytes changes
// it: 256 MB holds the whole quick figure suite (233 results and 105
// plans charge about 110 MB), so only paper-scale runs and long-lived
// servers evict.
const DefaultMaxBytes = 256 << 20

// Outcome classifies how one Run request was served.
type Outcome int

const (
	// Computed: this call ran the simulation (and primed the cache).
	Computed Outcome = iota
	// Hit: served from an already-completed in-memory entry.
	Hit
	// Dedup: blocked on another caller's in-flight computation of the
	// same cell, then shared its accumulator.
	Dedup
	// DiskHit: decoded from the on-disk store, no simulation.
	DiskHit
	// RemoteHit: fetched from the shared fleet cache tier (another
	// replica computed this cell), no simulation.
	RemoteHit
	// Bypass: the configuration is not cacheable (unknown policy or CIS,
	// per-job retention); the simulation ran directly.
	Bypass
	// PlanHit: the cell was computed, but its decide phase was served from
	// an in-memory decision plan (another cell of the same decision
	// fingerprint decided first) and only the replay ran (plan.go).
	PlanHit
	// PlanDiskHit: like PlanHit, with the plan decoded from the on-disk
	// plan store.
	PlanDiskHit
)

// String returns the lower-case outcome name used in cache-stats lines.
func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	case DiskHit:
		return "disk-hit"
	case RemoteHit:
		return "remote-hit"
	case Bypass:
		return "bypass"
	case PlanHit:
		return "plan-hit"
	case PlanDiskHit:
		return "plan-disk-hit"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Cache deduplicates simulation runs by content fingerprint. The zero
// value is not ready; use New.
type Cache struct {
	// Logf receives diagnostics about unusable disk entries (corruption,
	// version skew, IO errors). Defaults to log.Printf; replace before
	// first use. Never called on the happy path.
	Logf func(format string, args ...any)

	results flights[*metrics.Accumulator]
	plans   flights[*core.DecisionPlan] // keyed by DecisionFingerprint
	mem     memory                      // both tiers' byte budget

	mu     sync.Mutex  // guards dir and remote
	dir    string      // "" = in-memory tier only
	remote RemoteStore // nil = no shared fleet tier
}

// New returns an empty in-memory cache bounded to DefaultMaxBytes. Call
// SetDir to add the disk tier.
func New() *Cache {
	c := &Cache{Logf: log.Printf}
	c.mem.maxBytes = DefaultMaxBytes
	c.results.m = make(map[[32]byte]*flight[*metrics.Accumulator])
	c.results.mem, c.results.size = &c.mem, resultBytes
	c.plans.m = make(map[[32]byte]*flight[*core.DecisionPlan])
	c.plans.mem, c.plans.size = &c.mem, planBytes
	return c
}

// SetMaxBytes sets the memory tier's budget (DefaultMaxBytes when n <= 0);
// entries beyond it are evicted as the next ones complete.
func (c *Cache) SetMaxBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBytes
	}
	c.mem.mu.Lock()
	c.mem.maxBytes = n
	c.mem.mu.Unlock()
}

// What a completed entry is charged: an upper bound on the heap it keeps
// reachable, so the budget bounds what the cache holds (TestMemoryBudget
// measures it). entryBytes covers what any entry holds beyond its
// columns: the flight, its map and budget slots, the accumulator's or the
// plan's and its replay memo's headers, about 1 KB measured, doubled for
// runtimes and race builds that lay them out less tightly. A result adds
// its columns and usage bins. A plan adds, per job, its start (8 B), once
// replayed its memo's endpoint orders and rank columns (28 B) and
// schedule columns (33 B), and the workload job the memo pins (56 B and a
// user string of up to 16 B).
const (
	entryBytes   = 2 << 10
	planJobBytes = 8 + 28 + 33 + 56 + 16
)

func resultBytes(a *metrics.Accumulator) int64 { return int64(entryBytes + a.MemBytes()) }

func planBytes(p *core.DecisionPlan) int64 { return int64(entryBytes + planJobBytes*p.NumJobs()) }

// SetDir attaches the on-disk store rooted at dir, creating it if needed.
func (c *Cache) SetDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
	return nil
}

// Run serves one simulation cell through the cache: it returns the same
// (Result, error) core.Run(cfg, jobs) would, plus how the request was
// served. Results rebuilt from cache are bit-identical to fresh ones.
// Errors are never cached — a failing cell re-simulates on every request.
func (c *Cache) Run(cfg core.Config, jobs *workload.Trace) (*metrics.Result, Outcome, error) {
	return c.RunContext(context.Background(), cfg, jobs)
}

// RunContext is Run with cooperative cancellation, for serving layers
// whose clients may disconnect mid-simulation. The first caller for a cell
// starts its computation on a context detached from every caller; each
// caller waits on its own ctx and returns ctx.Err() when that ends, and
// the computation keeps running while any caller still waits. Only when
// the last one has left does it cancel the computation (core.RunContext
// then stops its event loop) and forget the cell, so the next request
// recomputes it. Callers therefore need no coalescing of their own: a
// serving layer passes each request's ctx, deadline included.
func (c *Cache) RunContext(ctx context.Context, cfg core.Config, jobs *workload.Trace) (*metrics.Result, Outcome, error) {
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		res, err := core.RunContext(ctx, cfg, jobs)
		return res, Bypass, err
	}
	canon := cfg.Canonical()
	acc, outcome, err := c.results.do(ctx, fp, func(ctx context.Context) (*metrics.Accumulator, Outcome, error) {
		return c.miss(ctx, fp, canon, jobs)
	})
	if err != nil {
		return nil, outcome, err
	}
	return core.NewResult(canon, jobs, acc), outcome, nil
}

// miss is a result flight's work. Tier order: disk (local, trusted) →
// remote fleet tier (another replica computed it) → compute. A remote hit
// also warms the local disk tier with the blob exactly as fetched (it
// already passed the codec's checksum); a computed cell is encoded once
// and offered to both, so the cell's ring owner ends up holding it for
// the fleet. Computation itself consults one more tier: the decision-plan
// cache (plan.go), which lets a cell whose decide phase matches an earlier
// cell replay accounting over the shared plan (PlanHit/PlanDiskHit).
func (c *Cache) miss(ctx context.Context, fp [32]byte, canon core.Config, jobs *workload.Trace) (*metrics.Accumulator, Outcome, error) {
	dir, remote := c.tiers()
	if acc := loadEntry(c, dir, fp, accSuffix, metrics.DecodeAccumulator); acc != nil {
		return acc, DiskHit, nil
	}
	if acc, blob := c.loadRemote(ctx, remote, fp); acc != nil {
		c.storeEntry(dir, fp, accSuffix, blob)
		return acc, RemoteHit, nil
	}
	res, served, err := c.computePlanned(ctx, canon, jobs)
	if err != nil {
		return nil, served, err
	}
	acc := res.Accumulator()
	if dir != "" || remote != nil {
		blob := metrics.EncodeAccumulator(acc)
		c.storeEntry(dir, fp, accSuffix, blob)
		c.storeRemote(ctx, remote, fp, blob)
	}
	return acc, served, nil
}

// tiers returns the attached disk directory and fleet store.
func (c *Cache) tiers() (string, RemoteStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir, c.remote
}

// Store entries are named by the hex key plus a suffix spelling out the
// codec and store versions, so entries written by an incompatible binary
// simply never match; the key's own layout version is already folded into
// the fingerprint. Results and decision plans share one directory.
var (
	accSuffix  = fmt.Sprintf(".c%d.s%d.gacc", metrics.CodecVersion, StoreVersion)
	planSuffix = fmt.Sprintf(".p%d.s%d.gplan", core.PlanCodecVersion, StoreVersion)
)

func entryPath(dir string, key [32]byte, suffix string) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+suffix)
}

// readBufs holds the buffers disk entries are read into. An entry is
// garbage once decoded (both codecs copy every column out), so a warm
// suite reuses a few buffers instead of allocating one per entry.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// loadEntry fetches and decodes the disk entry for key, returning nil on
// any miss or problem. Absent files are silent; anything else is logged.
func loadEntry[T any](c *Cache, dir string, key [32]byte, suffix string, decode func([]byte) (*T, error)) *T {
	if dir == "" {
		return nil
	}
	path := entryPath(dir, key, suffix)
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	data, err := readFileInto(path, *buf)
	*buf = data[:0]
	if err != nil {
		if !os.IsNotExist(err) {
			c.Logf("runcache: reading %s: %v (recomputing)", path, err)
		}
		return nil
	}
	v, err := decode(data)
	if err != nil {
		c.Logf("runcache: decoding %s: %v (recomputing)", path, err)
		return nil
	}
	return v
}

// readFileInto is os.ReadFile into buf's storage, grown if the file needs
// more. It reads until EOF rather than trusting the size Stat reports, so
// a file that grew or shrank since is read as it is, and the decoder
// judges what was read.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	var size int
	if info, err := f.Stat(); err == nil && int64(int(info.Size())) == info.Size() {
		size = int(info.Size())
	}
	if cap(buf) <= size {
		// One spare byte lets the read that finds EOF run without growing.
		buf = make([]byte, 0, size+1)
	}
	buf = buf[:0]
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// storeEntry persists an encoded entry atomically: it is written to a
// temp file in the same directory and renamed into place, so concurrent
// readers (a cold and a warm suite sharing one cache dir) only ever see
// complete entries. Failures are logged and otherwise ignored — the store
// is an accelerator, not a system of record.
func (c *Cache) storeEntry(dir string, key [32]byte, suffix string, data []byte) {
	if dir == "" {
		return
	}
	path := entryPath(dir, key, suffix)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		c.Logf("runcache: creating temp entry in %s: %v", dir, err)
		return
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Close()
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		c.Logf("runcache: writing %s: %v", path, err)
	}
}
