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

// gapBound is factor expected gaps of a ring of the estimated size, to within
// float64's 53 bits; sizes below two count as two.
func TestGapBound(t *testing.T) {
	const top = ^uint64(0)
	near := func(got, want uint64) bool {
		d := got - want
		if want > got {
			d = want - got
		}
		return d <= want>>52
	}
	for _, tc := range []struct {
		size   int
		factor float64
		want   uint64
	}{
		{2, 1, top / 2},
		{4, 1, top / 4},
		{1000, 1, top / 1000},
		{1000, 8, top / 1000 * 8},
		{1000, 0.5, top / 2000},
	} {
		if got := gapBound(tc.size, tc.factor); !near(got, tc.want) {
			t.Errorf("gapBound(%d, %v) = %d, want %d", tc.size, tc.factor, got, tc.want)
		}
	}
	for _, size := range []int{-1, 0, 1} {
		if got, want := gapBound(size, 0.5), gapBound(2, 0.5); got != want {
			t.Errorf("gapBound(%d, 0.5) = %d, want %d: a ring has at least two nodes", size, got, want)
		}
	}
}

// A table's fingers enter the candidate set only when they trail an ideal
// position of their owner by at most the bound, and its successors only
// within k expected gaps of it: fingers pushed far from every ideal position
// (at a colluder, say) add nothing.
func TestAbsorbDropsEntriesOutOfBound(t *testing.T) {
	tl, _ := newCandidateLookup(9000, nil, nil)
	tl.n.cfg.EstimatedSize, tl.n.cfg.BoundFactor = 1000, 1
	bound := gapBound(1000, 1)
	owner := chord.Peer{ID: 2000, Addr: 7}
	const colluder = transport.Addr(99)

	near := chord.Peer{ID: owner.ID.Add(bound), Addr: 8}
	table := tableOf(owner, 1, near, chord.Peer{ID: owner.ID.Add(1 << 62), Addr: colluder})
	want := []id.ID{near.ID}
	for k := 56; k < 64; k++ {
		honest := owner.ID.Add(1<<k + bound/2)
		wild := owner.ID.Add(1<<k + 1<<(k-1)) // halfway to the next ideal position
		table.Fingers = append(table.Fingers,
			chord.Peer{ID: honest, Addr: transport.Addr(10 + k)}, chord.Peer{ID: wild, Addr: colluder})
		want = append(want, honest)
	}
	tl.absorb(owner, table)

	if got := candidateIDs(tl); !slices.Equal(got, want) {
		t.Errorf("candidates = %v, want only the in-bound entries %v", got, want)
	}
	for _, c := range tl.cands {
		if c.peer.Addr == colluder {
			t.Errorf("out-of-bound entry %v entered the candidate set", c.peer)
		}
	}
}

// The query budget caps a lookup: it ends having sent at most
// MaxLookupQueries queries, with an owner or ErrLookupExhausted. A budget of
// zero ends it before the first query.
func TestLookupQueryBudget(t *testing.T) {
	nw := buildTestNet(t, 15, 80, nil)
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	key := node.Self().ID.Add(1 << 63)
	for _, budget := range []int{0, 1, 2} {
		node.cfg.MaxLookupQueries = budget
		fired := false
		node.DirectTableLookup(key, func(_ DirectLookupResult, st LookupStats, err error) {
			fired = true
			if st.Queries > budget {
				t.Errorf("budget %d: %d queries sent", budget, st.Queries)
			}
			if err != nil && err != ErrLookupExhausted {
				t.Errorf("budget %d: err = %v, want nil or ErrLookupExhausted", budget, err)
			}
			if budget == 0 && (err != ErrLookupExhausted || st.Queries != 0) {
				t.Errorf("budget 0: %d queries, err = %v; want none and ErrLookupExhausted", st.Queries, err)
			}
		})
		nw.Sim.Run(nw.Sim.Now() + time.Minute)
		if !fired {
			t.Fatalf("budget %d: lookup did not terminate", budget)
		}
	}
}

// Stats.Queried lists each real query once, as many as Stats.Queries counts,
// for both kinds of lookup.
func TestLookupStatsListQueriesOnce(t *testing.T) {
	nw := buildTestNet(t, 16, 100, nil)
	nw.Sim.Run(3 * time.Minute) // stock the relay pools
	rng := rand.New(rand.NewSource(16))
	done, queries := 0, 0
	check := func(kind string, st LookupStats, err error) {
		done++
		queries += st.Queries
		if err != nil {
			t.Errorf("%s lookup failed: %v", kind, err)
		}
		if len(st.Queried) != st.Queries {
			t.Errorf("%s lookup lists %d queried nodes for %d queries", kind, len(st.Queried), st.Queries)
		}
		seen := map[id.ID]bool{}
		for _, p := range st.Queried {
			if seen[p.ID] {
				t.Errorf("%s lookup queried %v twice", kind, p)
			}
			seen[p.ID] = true
		}
	}
	const lookups = 10
	for i := 0; i < lookups; i++ {
		node := nw.Node(simnet.Address(rng.Intn(100)))
		key := id.ID(rng.Uint64())
		node.DirectTableLookup(key, func(_ DirectLookupResult, st LookupStats, err error) { check("direct", st, err) })
		node.AnonLookup(key, func(_ chord.Peer, st LookupStats, err error) { check("anonymous", st, err) })
		nw.Sim.Run(nw.Sim.Now() + time.Minute)
	}
	if done != 2*lookups {
		t.Fatalf("%d/%d lookups completed", done, 2*lookups)
	}
	if queries <= 2*lookups {
		t.Errorf("%d queries over %d lookups: the check needs lookups that query several nodes", queries, 2*lookups)
	}
}

// A node serving re-signed tables whose fingers sit far from every ideal
// position, all pointing at a colluder, cannot steer a lookup that queries
// it: the bound check keeps the wild fingers out, so every node queried is a
// ring member and the owner is the true one.
func TestDirectTableLookupIgnoresWildFingers(t *testing.T) {
	nw := buildTestNet(t, 17, 100, nil)
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	// The initiator's best candidate for a key just short of self+2^63 is
	// its finger toward self+2^62: nothing else it knows lies in between.
	key := node.Self().ID.Add(1<<63 - 1)
	evil := nw.Node(nw.Ring.Owner(node.Self().ID.Add(1 << 62)).Addr)
	colluder := nw.Node(10).Self().Addr
	ident := evil.Chord.Identity()
	evil.Chord.Intercept = func(_ simnet.Address, _, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if r, isTable := honest.(chord.GetTableResp); isTable {
			r.Table = r.Table.Clone()
			for i := range r.Table.Fingers {
				// Between the evil node and the key, and further behind
				// 2^61 than the bound (8 expected gaps) allows.
				r.Table.Fingers[i] = chord.Peer{ID: r.Table.Owner.ID.Add(1<<61 + 1<<60 + 1<<59 + uint64(i)), Addr: colluder}
			}
			_ = r.Table.Sign(ident.Scheme, ident.Key)
			return r, ok
		}
		return honest, ok
	}
	members := map[id.ID]bool{}
	for _, p := range nw.Ring.AlivePeers() {
		members[p.ID] = true
	}

	fired := false
	node.DirectTableLookup(key, func(res DirectLookupResult, st LookupStats, err error) {
		fired = true
		if err != nil {
			t.Fatalf("lookup failed: %v", err)
		}
		if want := nw.Ring.Owner(key); res.Owner != want {
			t.Errorf("owner = %v, want %v", res.Owner, want)
		}
		if len(st.Queried) == 0 || st.Queried[0] != evil.Self() {
			t.Fatalf("queried %v: the lookup must ask the manipulating node %v first", st.Queried, evil.Self())
		}
		for _, p := range st.Queried {
			if !members[p.ID] {
				t.Errorf("lookup queried %v, a finger the bound check should have dropped", p)
			}
		}
	})
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if !fired {
		t.Fatal("lookup did not complete")
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
