package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// seedTier is a routing tier that hands a lookup exactly the given seeds.
type seedTier struct {
	chord.RoutingTier
	seeds []chord.Peer
}

func (seedTier) FullState() bool                 { return false }
func (t seedTier) Candidates(id.ID) []chord.Peer { return t.seeds }

// newCandidateLookup builds a lookup for key on a node with identifier 1000
// whose tier returns seeds. send records the peers queried and never answers.
// The engine takes its seeds on first need: a test that reads cands before the
// first step calls seed itself. The lookup is padded, so it keeps every peer.
func newCandidateLookup(key id.ID, seeds []chord.Peer, finish func(chord.Peer, DirectLookupResult, error)) (*tableLookup, *[]chord.Peer) {
	net := simnet.NewNetwork(simnet.New(1), simnet.ConstantLatency{D: time.Millisecond}, 1)
	cfg := DefaultConfig()
	cfg.EstimatedSize, cfg.BoundFactor = 2, 1 // every successor within half the ring of its owner is in bound
	self := chord.Peer{ID: 1000, Addr: 0}
	n := &Node{cfg: cfg, tr: net, Chord: chord.NewNode(net, cfg.Chord, self, nil), tier: seedTier{seeds: seeds}}
	var sent []chord.Peer
	tl := n.newTableLookup(key, true, func(p chord.Peer, _ func(transport.Message, error)) bool {
		sent = append(sent, p)
		return true
	}, finish)
	return tl, &sent
}

func candidateIDs(tl *tableLookup) []id.ID {
	out := make([]id.ID, len(tl.cands))
	for i, c := range tl.cands {
		out[i] = c.peer.ID
	}
	return out
}

// tableOf is a table owned by owner whose successor list is succs; stamp
// tells two tables of one owner apart.
func tableOf(owner chord.Peer, stamp time.Duration, succs ...chord.Peer) chord.RoutingTable {
	return chord.RoutingTable{Owner: owner, Successors: succs, Timestamp: stamp}
}

func TestCandidateSetSeedsOverwriteAndSort(t *testing.T) {
	tl, _ := newCandidateLookup(9000, []chord.Peer{
		{ID: 5000, Addr: 1}, {ID: 3000, Addr: 2}, {ID: 5000, Addr: 3}, {ID: 4000, Addr: 4},
	}, nil)
	if len(tl.cands) != 0 {
		t.Fatalf("%d candidates before the first step, want the seeds left with the tier", len(tl.cands))
	}
	tl.seed()
	tl.seed() // taken once
	if got := candidateIDs(tl); len(got) != 3 || got[0] != 3000 || got[1] != 4000 || got[2] != 5000 {
		t.Fatalf("candidates = %v, want [3000 4000 5000]", got)
	}
	if c := tl.cands[2]; c.peer.Addr != 3 || c.queried {
		t.Errorf("a repeated seed must overwrite the earlier one: got %+v, want addr 3", c)
	}
}

func TestCandidateSetAbsorbKeepsFirstSource(t *testing.T) {
	var res DirectLookupResult
	tl, _ := newCandidateLookup(9000, []chord.Peer{{ID: 3000, Addr: 2}}, func(_ chord.Peer, r DirectLookupResult, _ error) { res = r })
	tl.seed()
	a, b := chord.Peer{ID: 2000, Addr: 7}, chord.Peer{ID: 2500, Addr: 8}
	first := tableOf(a, 1, chord.Peer{ID: 6000, Addr: 11}, chord.Peer{ID: 3000, Addr: 12}, chord.Peer{ID: 1000, Addr: 13})
	tl.absorb(a, first)
	tl.absorb(b, tableOf(b, 2, chord.Peer{ID: 6000, Addr: 21}, chord.Peer{ID: 7000, Addr: 22}))

	if got := candidateIDs(tl); len(got) != 3 || got[0] != 3000 || got[1] != 6000 || got[2] != 7000 {
		t.Fatalf("candidates = %v, want [3000 6000 7000] (the node itself is never a candidate)", got)
	}
	if c := tl.cands[0]; c.peer.Addr != 2 {
		t.Errorf("a table must not replace a tier seed: got %+v", c)
	}
	if c := tl.cands[1]; c.peer.Addr != 11 {
		t.Errorf("the first table to name a peer keeps the entry: got %+v, want addr 11", c)
	}
	if c := tl.cands[2]; c.peer.Addr != 22 {
		t.Errorf("peer 7000 came from the second table: got %+v", c)
	}

	// The one table done shows for an owner is the one whose successor list
	// vouched for it; an owner nobody vouched for has none.
	tl.done(chord.Peer{ID: 6000, Addr: 11}, nil)
	if res.HasEvidence {
		t.Errorf("no successor list vouched for 6000: got %+v", res.Evidence)
	}
	tl.finished = false
	tl.key = 5000 // owned by 6000, says a's successor list
	tl.recordOwnerCandidate(first)
	tl.done(tl.ownerBest, nil)
	if !res.HasEvidence || res.Owner.ID != 6000 || res.Evidence.Owner.ID != a.ID || res.Evidence.Timestamp != 1 {
		t.Errorf("evidence = %+v (has %v) for owner %v, want the table of %v that vouched for 6000", res.Evidence, res.HasEvidence, res.Owner.ID, a.ID)
	}
}

func TestDummyTargetDrawsOverIDOrder(t *testing.T) {
	var seeds []chord.Peer
	for _, v := range rand.New(rand.NewSource(3)).Perm(40) {
		seeds = append(seeds, chord.Peer{ID: id.ID(2000 + 10*v), Addr: transport.Addr(v)})
	}
	tl, _ := newCandidateLookup(9000, seeds, nil)
	a, b := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		want := id.ID(2000 + 10*a.Intn(40)) // the k-th smallest identifier, k = Intn(len)
		got, ok := tl.dummyTarget(b)
		if !ok || got.ID != want {
			t.Fatalf("draw %d: target %v, want the peer at index Intn(len) of the ID order, %v", i, got.ID, want)
		}
	}
	empty, _ := newCandidateLookup(9000, nil, nil)
	if _, ok := empty.dummyTarget(b); ok || b.Int63() != a.Int63() {
		t.Error("an empty set yields no target and draws nothing")
	}
}

func TestBestUnqueriedNeverRepeats(t *testing.T) {
	// Candidates on both sides of the key; only those strictly between the
	// node (1000) and the key (9000) can improve on it.
	seeds := []chord.Peer{{ID: 500, Addr: 1}, {ID: 9000, Addr: 2}, {ID: 9500, Addr: 3}}
	for v := 1; v <= 30; v++ {
		seeds = append(seeds, chord.Peer{ID: id.ID(1000 + 250*v), Addr: transport.Addr(10 + v)})
	}
	tl, sent := newCandidateLookup(9000, seeds, nil)
	tl.alpha = len(seeds)
	tl.n.cfg.MaxLookupQueries = 2 * len(seeds)
	tl.step() // fills the window: every eligible candidate, best first, none answered
	tl.step()
	seen := map[id.ID]bool{}
	for i, p := range *sent {
		if seen[p.ID] {
			t.Fatalf("peer %v queried twice", p.ID)
		}
		seen[p.ID] = true
		if want := id.ID(1000 + 250*(30-i)); p.ID != want {
			t.Errorf("query %d went to %v, want %v: closest preceding the key first", i, p.ID, want)
		}
	}
	if len(*sent) != 30 {
		t.Errorf("%d queries, want the 30 candidates inside (1000, 9000)", len(*sent))
	}
	if _, ok := tl.bestUnqueried(); ok {
		t.Error("bestUnqueried offers a peer although every eligible one has been queried")
	}
}

// countingTier counts how often a lookup asks its tier for seeds.
type countingTier struct {
	chord.RoutingTier
	calls int
}

func (t *countingTier) Candidates(key id.ID) []chord.Peer {
	t.calls++
	return t.RoutingTier.Candidates(key)
}

// A key inside the local successor window resolves with no query, and the
// engine then never asks the tier for seeds — unless an anonymous lookup needs
// somewhere to send its dummies.
func TestSeedsTakenOnFirstNeed(t *testing.T) {
	nw := buildTestNet(t, 6, 80, nil)
	nw.Sim.Run(3 * time.Minute) // stock the relay pools
	node := nw.Node(0)
	tier := &countingTier{RoutingTier: node.tier}
	node.tier = tier
	want := node.Chord.Successors()[1]
	key := want.ID.Sub(1)

	fired := false
	node.DirectTableLookup(key, func(res DirectLookupResult, st LookupStats, err error) {
		fired = true
		if err != nil || res.Owner != want || res.HasEvidence || st.Queries != 0 {
			t.Errorf("direct lookup = %+v, %d queries, %v; want %v from the successor list alone", res, st.Queries, err, want)
		}
	})
	if !fired || tier.calls != 0 {
		t.Errorf("direct lookup inside the successor window: answered at once %v, %d Candidates calls (want 0)", fired, tier.calls)
	}

	fired = false
	node.AnonLookup(key, func(owner chord.Peer, st LookupStats, err error) {
		fired = true
		if err != nil || owner != want || st.Queries != 0 {
			t.Errorf("anonymous lookup = %v, %d queries, %v; want %v with no query", owner, st.Queries, err, want)
		}
		if st.Dummies != node.cfg.Dummies || st.Dummies == 0 {
			t.Errorf("%d dummies sent, want %d drawn from the seeds", st.Dummies, node.cfg.Dummies)
		}
	})
	if !fired || tier.calls != 1 {
		t.Errorf("anonymous lookup inside the successor window: answered at once %v, %d Candidates calls (want 1, for the dummies)", fired, tier.calls)
	}

	// Outside the window the seeds are taken by the first step.
	far := node.Chord.Self.ID.Add(1 << 63)
	node.DirectTableLookup(far, func(DirectLookupResult, LookupStats, error) {})
	if tier.calls != 2 {
		t.Errorf("%d Candidates calls after a lookup that must query, want 2", tier.calls)
	}
}

// replayLookup runs one engine for key on node against the network's current
// tables, with no virtual time passing: send queues each query, and the
// queued queries are answered one at a time in an order drawn from seed — by
// the target's own signed table, or by a timeout for every fifth identifier.
// It returns the peers queried, in order, and how the lookup ended.
func replayLookup(nw *testNet, node *Node, key id.ID, padded bool, alpha int, seed int64) ([]chord.Peer, chord.Peer, DirectLookupResult, error) {
	type query struct {
		target chord.Peer
		done   func(transport.Message, error)
	}
	var (
		queue  []query
		owner  chord.Peer
		result DirectLookupResult
		ended  error
	)
	tl := node.newTableLookup(key, padded, func(p chord.Peer, done func(transport.Message, error)) bool {
		queue = append(queue, query{p, done})
		return true
	}, func(o chord.Peer, res DirectLookupResult, err error) { owner, result, ended = o, res, err })
	tl.alpha = alpha
	rng := rand.New(rand.NewSource(seed))
	tl.step()
	for len(queue) > 0 {
		i := rng.Intn(len(queue))
		q := queue[i]
		queue = slices.Delete(queue, i, i+1)
		if q.target.ID%5 == 0 {
			q.done(nil, transport.ErrTimeout)
			continue
		}
		q.done(chord.GetTableResp{Table: nw.Nodes[q.target.Addr].Chord.Table(true, false)}, nil)
	}
	return tl.stats.Queried, owner, result, ended
}

// A lookup that keeps only the peers a query can still go to asks the same
// nodes in the same order, and ends the same way, as one that keeps them all.
func TestUnpaddedLookupQueriesLikePadded(t *testing.T) {
	nw := buildTestNet(t, 19, 150, nil)
	nw.Sim.Run(40 * time.Second)
	rng := rand.New(rand.NewSource(19))
	lookups, queried := 0, 0
	for _, node := range nw.Nodes[:40] {
		self := node.Chord.Self.ID
		keys := []id.ID{self.Add(1 << 63), self.Add(1 << 62), self.Sub(1), nw.Nodes[rng.Intn(len(nw.Nodes))].Chord.Self.ID}
		for range 6 {
			keys = append(keys, id.ID(rng.Uint64()), self.Add(1<<uint(52+rng.Intn(12))))
		}
		for _, key := range keys {
			for _, alpha := range []int{1, 3} {
				seed := rng.Int63()
				wantQ, wantOwner, wantRes, wantErr := replayLookup(nw, node, key, true, alpha, seed)
				gotQ, gotOwner, gotRes, gotErr := replayLookup(nw, node, key, false, alpha, seed)
				if !slices.Equal(gotQ, wantQ) || gotOwner != wantOwner || gotErr != wantErr ||
					gotRes.HasEvidence != wantRes.HasEvidence || gotRes.Evidence.Owner != wantRes.Evidence.Owner {
					t.Fatalf("node %v key %v alpha %d:\nunpadded queried %v -> %v, %v\n  padded queried %v -> %v, %v",
						self, key, alpha, gotQ, gotOwner, gotErr, wantQ, wantOwner, wantErr)
				}
				lookups++
				queried += len(wantQ)
			}
		}
	}
	if queried < 2*lookups {
		t.Errorf("%d queries over %d lookups: the comparison needs lookups that converge over several tables", queried, lookups)
	}
}
