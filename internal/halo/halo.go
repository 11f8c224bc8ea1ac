// Package halo implements Halo (Kapadia & Triandopoulos, NDSS 2008), the
// state-of-the-art secure DHT lookup the paper compares against in §7.
//
// Halo leaves the Chord overlay unmodified and gains lookup security through
// redundancy: instead of looking up key k directly, the initiator searches
// for k's "knuckles" — nodes whose i-th finger points at (or immediately
// past) k's owner — and asks each knuckle where its finger leads. The
// knuckle searches are themselves performed recursively with Halo ("degree-2
// recursion"), and the paper's evaluation uses redundancy 8×4: eight knuckle
// searches at the top level, four inside each recursive search.
//
// A Halo lookup completes only when ALL redundant branches have answered,
// which is why its latency exceeds Octopus's in Table 3 despite Octopus
// paying for anonymity.
package halo

import (
	"errors"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Config selects Halo's redundancy parameters. The defaults are the paper's
// §7 setup ("degree-2 recursion with redundant parameter 8×4").
type Config struct {
	// Knuckles is the number of knuckle searches at the outermost level.
	Knuckles int
	// InnerKnuckles is the redundancy used inside recursive searches.
	InnerKnuckles int
	// Degree is the recursion depth; 0 degrades to a plain Chord lookup.
	Degree int
}

// DefaultConfig returns the paper's Halo parameters.
func DefaultConfig() Config {
	return Config{Knuckles: 8, InnerKnuckles: 4, Degree: 2}
}

// Stats aggregates the cost of one Halo lookup across all branches.
type Stats struct {
	// Hops is the total number of node queries across every redundant
	// branch (the bandwidth driver).
	Hops int
	// Branches is the number of redundant branches launched.
	Branches int
	// Started and Finished are virtual timestamps; Finished is when the
	// LAST branch returned.
	Started, Finished time.Duration
	// Disagreements counts branches whose candidate differed from the
	// final majority answer (a proxy for detected manipulation).
	Disagreements int
}

// Latency returns the virtual duration of the whole redundant lookup.
func (s Stats) Latency() time.Duration { return s.Finished - s.Started }

// ErrNoCandidates means every redundant branch failed.
var ErrNoCandidates = errors.New("halo: all redundant branches failed")

// Client drives Halo lookups from one node.
type Client struct {
	cfg  Config
	node *chord.Node
}

// NewClient wraps a Chord node with Halo's redundant search.
func NewClient(node *chord.Node, cfg Config) *Client {
	return &Client{cfg: cfg, node: node}
}

// Lookup resolves the owner of key with full redundancy and invokes cb
// exactly once with the majority candidate.
func (c *Client) Lookup(key id.ID, cb func(chord.Peer, Stats, error)) {
	stats := &Stats{Started: c.node.Transport().Now()}
	c.search(key, c.cfg.Degree, c.cfg.Knuckles, stats, func(owner chord.Peer, err error) {
		stats.Finished = c.node.Transport().Now()
		cb(owner, *stats, err)
	})
}

// search runs one (possibly recursive) redundant search for key's owner.
func (c *Client) search(key id.ID, degree, redundancy int, stats *Stats, cb func(chord.Peer, error)) {
	if degree <= 0 || redundancy <= 1 {
		// Base case: a plain Chord lookup.
		stats.Branches++
		c.node.Lookup(key, func(owner chord.Peer, ls chord.LookupStats, err error) {
			stats.Hops += ls.Hops
			cb(owner, err)
		})
		return
	}

	type vote struct {
		owner chord.Peer
		err   error
	}
	votes := make([]vote, 0, redundancy)
	pending := redundancy
	finishBranch := func(owner chord.Peer, err error) {
		votes = append(votes, vote{owner: owner, err: err})
		pending--
		if pending > 0 {
			return
		}
		// All branches in: tally.
		counts := make(map[chord.Peer]int, len(votes))
		for _, v := range votes {
			if v.err == nil && v.owner.Valid() {
				counts[v.owner]++
			}
		}
		if len(counts) == 0 {
			cb(chord.NoPeer, ErrNoCandidates)
			return
		}
		best, bestVotes := chord.NoPeer, 0
		for p, c := range counts {
			switch {
			case c > bestVotes:
				best, bestVotes = p, c
			case c == bestVotes && key.Sub(1).Distance(p.ID) < key.Sub(1).Distance(best.ID):
				// Tie-break toward the closest successor of the
				// key: honest candidates are never farther than
				// the true owner.
				best = p
			}
		}
		for _, v := range votes {
			if v.err == nil && v.owner.Valid() && v.owner != best {
				stats.Disagreements++
			}
		}
		cb(best, nil)
	}

	for i := 0; i < redundancy; i++ {
		// The i-th knuckle lives just before key - 2^(top-i octave):
		// its high finger points at (or immediately past) key's owner.
		exp := max(id.Bits-1-i, 0)
		knuckleKey := key.Sub(1 << uint(exp))
		stats.Branches++
		c.search(knuckleKey, degree-1, c.cfg.InnerKnuckles, stats, func(knuckle chord.Peer, err error) {
			if err != nil || !knuckle.Valid() {
				finishBranch(chord.NoPeer, err)
				return
			}
			c.askKnuckle(knuckle, key, stats, finishBranch)
		})
	}
}

// askKnuckle asks a located knuckle where key's owner is, following at most
// a few of the knuckle's forwarding answers (the knuckle's finger lands at
// or just before the owner).
func (c *Client) askKnuckle(knuckle chord.Peer, key id.ID, stats *Stats, cb func(chord.Peer, error)) {
	const maxFollow = 4
	var step func(cur chord.Peer, left int)
	step = func(cur chord.Peer, left int) {
		stats.Hops++
		c.node.Transport().Call(c.node.Self.Addr, cur.Addr, chord.FindNextReq{Key: key},
			c.node.Cfg.RPCTimeout, func(resp transport.Message, err error) {
				if err != nil {
					cb(chord.NoPeer, err)
					return
				}
				r, ok := resp.(chord.FindNextResp)
				if !ok {
					cb(chord.NoPeer, chord.ErrLookupDiverged)
					return
				}
				if r.Done {
					cb(r.Owner, nil)
					return
				}
				if !r.Next.Valid() || left == 0 || !id.StrictBetween(r.Next.ID, cur.ID, key) {
					cb(chord.NoPeer, chord.ErrLookupDiverged)
					return
				}
				step(r.Next, left-1)
			})
	}
	step(knuckle, maxFollow)
}
