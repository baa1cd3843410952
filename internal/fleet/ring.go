// Package fleet turns a set of gaia-serve replicas (or standalone
// gaia-cached nodes) into one shared simulation-result cache tier. The
// pieces compose around internal/runcache's RemoteStore seam:
//
//   - Ring: a consistent-hash ring mapping each cell fingerprint
//     (core.Config.Fingerprint) to exactly one owner member, so identical
//     cells land on the same replica no matter which replica received the
//     request — single-flight dedup, which stops at a process boundary,
//     becomes global because every replica asks the same owner.
//   - CacheServer: the minimal HTTP protocol over one member's shard,
//     which is its runcache.Cache — the same bounded memory tier and disk
//     directory its own runs use; the internal/metrics codec, already
//     versioned and checksummed, is the wire format
//     (GET/PUT /v1/cache/{fingerprint-hex}).
//   - Client: the runcache.RemoteStore implementation that routes each
//     fingerprint through the Ring; a key this member owns is a miss,
//     since its run cache has already looked in its own tiers.
//
// The tier is an accelerator, never a dependency: every Client error or
// timeout degrades to local compute (runcache logs and recomputes), so a
// dead peer costs latency on the cells it owned, not availability.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVnodes is the default number of virtual nodes per member. 128
// vnodes keep the share spread of a small fleet within a few percent of
// uniform while the ring stays small enough to rebuild on every
// membership change.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over named members. Build
// with NewRing; methods are safe for concurrent use.
//
// Determinism is part of the contract: two processes constructing a Ring
// from the same member list (any order) and vnode count route every key
// identically, because vnode positions are pure FNV-1a hashes of
// "member#index" and key positions are read straight out of the
// fingerprint bytes. No process-local state (map order, randomness,
// pointer values) participates.
type Ring struct {
	vnodes  []vnode
	members []string
}

type vnode struct {
	pos    uint64
	member int32
}

// NewRing builds a ring over members with vnodesPerMember virtual nodes
// each (DefaultVnodes when <= 0). Duplicate member names are collapsed;
// an empty member list yields a ring whose Owner returns "".
func NewRing(members []string, vnodesPerMember int) *Ring {
	if vnodesPerMember <= 0 {
		vnodesPerMember = DefaultVnodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	// Sort so the member index — and thus nothing observable — depends on
	// the caller's argument order.
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		vnodes:  make([]vnode, 0, len(uniq)*vnodesPerMember),
	}
	for mi, m := range uniq {
		for i := 0; i < vnodesPerMember; i++ {
			r.vnodes = append(r.vnodes, vnode{pos: vnodePos(m, i), member: int32(mi)})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].pos != r.vnodes[b].pos {
			return r.vnodes[a].pos < r.vnodes[b].pos
		}
		// Position collisions are settled by member name, keeping the
		// order independent of the (already deterministic) input order.
		return r.members[r.vnodes[a].member] < r.members[r.vnodes[b].member]
	})
	return r
}

// vnodePos places one virtual node on the ring: sha256 over the member
// name and the vnode index, stable across processes and platforms. A
// cryptographic hash is deliberate — weaker mixers (FNV over near-equal
// strings) cluster the vnodes and skew member shares badly; sha256 runs
// only at ring-build time, so its cost is irrelevant.
func vnodePos(member string, index int) uint64 {
	h := sha256.New()
	h.Write([]byte(member))
	h.Write([]byte{'#'})
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(index))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member that owns key, or "" for an empty ring. Keys
// are cell fingerprints — already uniform sha256 output — so their ring
// position is simply the first eight bytes.
func (r *Ring) Owner(key [32]byte) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	pos := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].pos >= pos })
	if i == len(r.vnodes) {
		i = 0 // wrap: keys past the last vnode belong to the first
	}
	return r.members[r.vnodes[i].member]
}

// Members returns the deduplicated, sorted member list.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("fleet.Ring{%d members, %d vnodes}", len(r.members), len(r.vnodes))
}
