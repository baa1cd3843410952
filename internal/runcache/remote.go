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
