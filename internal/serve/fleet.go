package serve

import (
	"errors"

	"github.com/carbonsched/gaia/internal/fleet"
)

// ConfigureFleet joins this server to a shared simulation-result cache
// tier (internal/fleet): a consistent-hash ring over the member base URLs
// routes every cell fingerprint to exactly one owner, so a cell computed
// on any replica is a remote hit everywhere else.
//
// self is this replica's own base URL as peers see it ("http://host:port");
// it is added to the ring, and its shard is its run cache, so cells it
// owns never leave the process. Pass self == "" to participate as a pure
// client — the replica consults the tier (e.g. a set of standalone
// gaia-cached nodes named in peers) without owning a shard of it. peers
// lists the other members' base URLs; duplicates and empty strings are
// ignored.
//
// Call after New and before serving traffic. The /v1/cache/* shard routes
// are always registered — a replica serves its shard even before (or
// without) joining a ring, which lets a fleet be wired one process at a
// time. The tier is an accelerator by contract: every remote error or
// timeout degrades to local compute (logged by runcache), so a dead peer
// costs latency on the cells it owned, never availability.
func (s *Server) ConfigureFleet(self string, peers []string) error {
	members := make([]string, 0, len(peers)+1)
	if self != "" {
		members = append(members, self)
	}
	members = append(members, peers...)
	ring := fleet.NewRing(members, 0)
	if len(ring.Members()) == 0 {
		return errors.New("serve: fleet needs at least one member URL")
	}
	client := fleet.NewClient(ring, self)
	s.cache.SetRemote(client)
	label := self
	if label == "" {
		label = "(pure client)"
	}
	s.cfg.Logf("serve: joined cache tier %s as %s", ring, label)
	return nil
}
