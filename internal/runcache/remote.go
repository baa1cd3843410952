package runcache

import (
	"context"
	"time"

	"github.com/carbonsched/gaia/internal/metrics"
)

// RemoteStore is the seam between one process's run cache and a shared
// cache tier spanning a replica fleet (see internal/fleet). Values are
// encoded accumulators — exactly the bytes the disk tier writes, already
// versioned and checksummed by the internal/metrics codec — keyed by the
// same cell fingerprints as every other tier.
//
// The contract is deliberately loose, because the tier is an accelerator:
//
//   - Get returns (nil, nil) for a clean miss. Any error (timeout, dead
//     peer, protocol violation) is logged by the Cache and treated as a
//     miss — the cell recomputes locally, the request never fails.
//   - Put is best-effort; errors are logged and dropped.
//   - A blob that fails to decode or checksum is discarded like a corrupt
//     disk entry: a bad remote store can cost time, never correctness.
type RemoteStore interface {
	Get(ctx context.Context, fp [32]byte) ([]byte, error)
	Put(ctx context.Context, fp [32]byte, blob []byte) error
}

// remoteOpTimeout bounds one remote get/put independently of the caller's
// context, which may allow a multi-minute simulation: waiting longer than
// this for a peer is worse than recomputing.
const remoteOpTimeout = 2 * time.Second

// SetRemote attaches the shared cache tier. Pass nil to detach. Safe to
// call concurrently with Run, though it is normally wired once at startup.
func (c *Cache) SetRemote(r RemoteStore) {
	c.mu.Lock()
	c.remote = r
	c.mu.Unlock()
}

// loadRemote fetches and decodes a remote entry, returning the
// accumulator with the blob it decoded, or nil on any miss or problem —
// errors are logged, never propagated, so the tier can only ever degrade
// to a recompute.
func (c *Cache) loadRemote(ctx context.Context, remote RemoteStore, fp [32]byte) (*metrics.Accumulator, []byte) {
	if remote == nil {
		return nil, nil
	}
	rctx, cancel := context.WithTimeout(ctx, remoteOpTimeout)
	defer cancel()
	blob, err := remote.Get(rctx, fp)
	if err != nil {
		c.Logf("runcache: remote get %x: %v (recomputing)", fp[:8], err)
		return nil, nil
	}
	if blob == nil {
		return nil, nil
	}
	acc, err := metrics.DecodeAccumulator(blob)
	if err != nil {
		c.Logf("runcache: remote entry %x: %v (recomputing)", fp[:8], err)
		return nil, nil
	}
	return acc, blob
}

// Blob returns the encoding of cell fp's accumulator, from the memory tier
// or the disk tier, or nil when neither holds it: the shard protocol's
// GET. It neither computes nor waits on a running computation, since a
// peer is better off recomputing than stalling, and it serves no local
// request, so a peer's read leaves every Outcome as it was.
func (c *Cache) Blob(fp [32]byte) []byte {
	acc, ok := c.results.completed(fp)
	if !ok {
		dir, _ := c.tiers()
		acc = loadEntry(c, dir, fp, accSuffix, metrics.DecodeAccumulator)
	}
	if acc == nil {
		c.mem.misses.Add(1)
		return nil
	}
	c.mem.hits.Add(1)
	// Re-encoding a decoded accumulator reproduces its blob byte for byte
	// (FuzzDecodeAccumulator), so a peer reads what was stored.
	return metrics.EncodeAccumulator(acc)
}

// PutBlob stores a peer's encoding of cell fp, the shard protocol's PUT.
// A blob that does not decode is rejected with the codec's error. A valid
// one becomes a completed memory entry, served as RemoteHit to the first
// local request that reads it and Hit after, and is written to the disk
// tier. A cell that already has a flight here, running or completed,
// keeps it: that flight fills the tiers itself.
func (c *Cache) PutBlob(fp [32]byte, blob []byte) error {
	acc, err := metrics.DecodeAccumulator(blob)
	if err != nil {
		return err
	}
	if !c.results.insert(fp, acc, RemoteHit) {
		return nil
	}
	c.mem.puts.Add(1)
	dir, _ := c.tiers()
	c.storeEntry(dir, fp, accSuffix, blob)
	return nil
}

// StoreStats is the memory tier's occupancy — completed result and plan
// entries and what they are charged — and the shard protocol's
// cumulative traffic.
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// Stats reports the store's occupancy and counters.
func (c *Cache) Stats() StoreStats {
	m := &c.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	return StoreStats{Entries: len(m.fifo), Bytes: m.bytes, Evictions: m.evictions,
		Hits: m.hits.Load(), Misses: m.misses.Load(), Puts: m.puts.Load()}
}

// storeRemote offers a freshly computed entry's encoding, the same bytes
// the disk tier writes, to the tier, best-effort.
func (c *Cache) storeRemote(ctx context.Context, remote RemoteStore, fp [32]byte, blob []byte) {
	if remote == nil {
		return
	}
	rctx, cancel := context.WithTimeout(ctx, remoteOpTimeout)
	defer cancel()
	if err := remote.Put(rctx, fp, blob); err != nil {
		c.Logf("runcache: remote put %x: %v (dropped)", fp[:8], err)
	}
}
