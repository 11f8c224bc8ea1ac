package chord

import (
	"errors"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Errors reported by lookups.
var (
	// ErrLookupTimeout means an intermediate node failed to answer.
	ErrLookupTimeout = errors.New("chord: lookup step timed out")
	// ErrLookupDiverged means a hop failed to make clockwise progress
	// toward the key — either a routing anomaly or active manipulation.
	ErrLookupDiverged = errors.New("chord: lookup stopped converging")
	// ErrLookupHops means maxLookupHops was exceeded.
	ErrLookupHops = errors.New("chord: lookup exceeded max hops")
)

// maxLookupHops aborts lookups that stop converging.
const maxLookupHops = 128

// LookupStats describes one completed (or failed) lookup.
type LookupStats struct {
	// Hops is the number of intermediate nodes queried.
	Hops int
	// Queried lists the queried nodes in order.
	Queried []Peer
	// Started and Finished are virtual timestamps.
	Started, Finished time.Duration
	// Timeouts counts per-hop RPC timeouts encountered.
	Timeouts int
}

// Latency returns the wall (virtual) duration of the lookup.
func (s LookupStats) Latency() time.Duration { return s.Finished - s.Started }

// Lookup iteratively resolves the owner of key, invoking cb exactly once.
// This is the vanilla Chord iterative lookup (§2): the key is revealed to
// every queried node and the initiator contacts intermediate nodes directly
// — the two anonymity defects Octopus corrects.
func (n *Node) Lookup(key id.ID, cb func(Peer, LookupStats, error)) {
	n.LookupVia(NoPeer, key, cb)
}

// LookupVia starts the iterative lookup at the given first hop instead of
// the local routing state (used by joins); NoPeer starts it locally.
func (n *Node) LookupVia(first Peer, key id.ID, cb func(Peer, LookupStats, error)) {
	stats := LookupStats{Started: n.tr.Now()}
	finish := func(owner Peer, err error) {
		stats.Finished = n.tr.Now()
		cb(owner, stats, err)
	}

	var step func(cur Peer)
	step = func(cur Peer) {
		if stats.Hops >= maxLookupHops {
			finish(NoPeer, ErrLookupHops)
			return
		}
		stats.Hops++
		stats.Queried = append(stats.Queried, cur)
		n.tr.Call(n.Self.Addr, cur.Addr, FindNextReq{Key: key}, n.Cfg.RPCTimeout,
			func(resp transport.Message, err error) {
				if err != nil {
					stats.Timeouts++
					finish(NoPeer, ErrLookupTimeout)
					return
				}
				r, ok := resp.(FindNextResp)
				if !ok {
					finish(NoPeer, ErrLookupDiverged)
					return
				}
				if r.Done {
					finish(r.Owner, nil)
					return
				}
				if !r.Next.Valid() {
					finish(NoPeer, ErrLookupDiverged)
					return
				}
				// Convergence guard: each hop must move strictly
				// clockwise toward the key.
				if !id.StrictBetween(r.Next.ID, cur.ID, key) {
					finish(NoPeer, ErrLookupDiverged)
					return
				}
				step(r.Next)
			})
	}

	if first.Valid() {
		step(first)
		return
	}
	// The first step is the node answering itself.
	if r := n.handleFindNext(FindNextReq{Key: key}); r.Done {
		finish(r.Owner, nil)
	} else {
		step(r.Next)
	}
}

// Join bootstraps a fresh node into the ring via any live member. Since the
// dynamic-membership protocol it is an alias for JoinVia (membership.go):
// the node looks up its own identifier to find its successor, then runs the
// JoinReq admission handshake — carrying its certificate, when it has one —
// and seeds its neighbor lists from the JoinResp. Routing bootstraps
// through the successor list alone; the fingertable fills via finger
// updates. (Seeding fingers with the successor would publish false finger
// claims — the successor is almost never the owner of any ideal position.)
func (n *Node) Join(bootstrap Peer, done func(error)) {
	n.JoinVia(bootstrap, done)
}
