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
		out[i] = c.ID
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
	if c := tl.cands[2]; c.Addr != 3 || c.queried {
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
	if c := tl.cands[0]; c.Addr != 2 {
		t.Errorf("a table must not replace a tier seed: got %+v", c)
	}
	if c := tl.cands[1]; c.Addr != 11 {
		t.Errorf("the first table to name a peer keeps the entry: got %+v, want addr 11", c)
	}
	if c := tl.cands[2]; c.Addr != 22 {
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
		if c.Addr == colluder {
			t.Errorf("out-of-bound entry %v entered the candidate set", c)
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

// Both kinds of lookup send each real query once, as many as Stats.Queries
// counts: recorded through the engine's send hook, on replayed lookups over a
// live ring's tables.
func TestLookupStatsListQueriesOnce(t *testing.T) {
	nw := buildTestNet(t, 16, 100, nil)
	nw.Sim.Run(40 * time.Second)
	rng := rand.New(rand.NewSource(16))
	queries := 0
	const lookups = 10
	for i := 0; i < lookups; i++ {
		node := nw.Node(simnet.Address(rng.Intn(100)))
		key := id.ID(rng.Uint64())
		for _, padded := range []bool{false, true} {
			var tl *tableLookup
			sent, _, _, err := replay(nw, node, key, padded, 3, rng.Int63(), func(l *tableLookup) { tl = l })
			if err != nil {
				t.Errorf("padded %v lookup failed: %v", padded, err)
			}
			if len(sent) != tl.stats.Queries {
				t.Errorf("padded %v lookup sent %d queries and counts %d", padded, len(sent), tl.stats.Queries)
			}
			seen := map[id.ID]bool{}
			for _, p := range sent {
				if seen[p.ID] {
					t.Errorf("padded %v lookup queried %v twice", padded, p)
				}
				seen[p.ID] = true
			}
			queries += len(sent)
		}
	}
	if queries <= 2*lookups {
		t.Errorf("%d queries over %d lookups: the check needs lookups that query several nodes", queries, 2*lookups)
	}
}

// A node serving re-signed tables whose fingers sit far from every ideal
// position, all pointing at a colluder, cannot steer a lookup that queries
// it: the bound check keeps the wild fingers out, so the lookup never sends
// the colluder they name a query, and the owner is the true one.
func TestDirectTableLookupIgnoresWildFingers(t *testing.T) {
	nw := buildTestNet(t, 17, 100, nil)
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	// The initiator's best candidate for a key just short of self+2^63 is
	// its finger toward self+2^62: nothing else it knows lies in between.
	key := node.Self().ID.Add(1<<63 - 1)
	evil := nw.Node(nw.Ring.Owner(node.Self().ID.Add(1 << 62)).Addr)
	// The colluder lies behind the node, where no query for the key goes,
	// so a table request it gets from the node went to a wild finger.
	colluder := nw.Ring.Owner(node.Self().ID.Sub(1 << 62)).Addr
	asked := map[simnet.Address]bool{}
	record := func(at *Node) chord.Interceptor {
		return func(from simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
			if r, isTable := req.(chord.GetTableReq); isTable && r.IncludeSuccessors && from == node.Self().Addr {
				asked[at.Self().Addr] = true // a lookup's query, not a walk's
			}
			return honest, ok
		}
	}
	for _, peer := range nw.Nodes {
		peer.Chord.Intercept = record(peer)
	}
	ident := evil.Chord.Identity()
	evil.Chord.Intercept = func(from simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		record(evil)(from, req, honest, ok)
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

	fired := false
	node.DirectTableLookup(key, func(res DirectLookupResult, st LookupStats, err error) {
		fired = true
		if err != nil {
			t.Fatalf("lookup failed: %v", err)
		}
		if want := nw.Ring.Owner(key); res.Owner != want {
			t.Errorf("owner = %v, want %v", res.Owner, want)
		}
	})
	nw.Sim.Run(25 * time.Second) // before the node's own finger updates at 30 s
	if !fired {
		t.Fatal("lookup did not complete")
	}
	if !asked[evil.Self().Addr] {
		t.Errorf("the lookup never asked the manipulating node %v", evil.Self())
	}
	if asked[colluder] {
		t.Errorf("the lookup asked the colluder %v, a finger the bound check should have dropped", colluder)
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
	if _, ok, _ := tl.bestUnqueried(); ok {
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

// A lookup holds its tier's Candidates result for its whole life
// (chord.RoutingTier), so no later change of routing state may write into it:
// on both tiers, results taken before a third of the ring dies read the same
// after the repairs, the finger updates and the membership events that
// follow, though the tier now answers differently. A first round of deaths
// makes sure the tier no longer holds the state it was built with (a seeded
// one-hop table is shared until its node first writes).
func TestTierCandidatesHoldForLife(t *testing.T) {
	for _, tier := range []string{TierFinger, TierOneHop} {
		t.Run(tier, func(t *testing.T) {
			nw := buildTestNet(t, 5, 60, func(c *Config) { c.RoutingTier = tier })
			node := nw.Node(0)
			self := node.Self().ID
			kill := func(c []chord.Peer) {
				for _, p := range c[:len(c)/2] {
					nw.Nodes[p.Addr].Stop()
				}
			}
			nw.Sim.Run(20 * time.Second)
			kill(node.tier.Candidates(self.Sub(1 << 62)))
			nw.Sim.Run(nw.Sim.Now() + 40*time.Second)
			keys := []id.ID{self.Add(1 << 63), self.Add(1 << 62), self.Sub(1)}
			var held, was [][]chord.Peer
			for _, k := range keys {
				c := node.tier.Candidates(k)
				held, was = append(held, c), append(was, slices.Clone(c))
			}
			for _, c := range held {
				kill(c)
			}
			kill(node.Chord.Successors())
			nw.Sim.Run(nw.Sim.Now() + 100*time.Second) // past three finger-update rounds
			changed := 0
			for i, k := range keys {
				if !slices.Equal(held[i], was[i]) {
					t.Errorf("key %v: a held result now reads %v, was %v", k, held[i], was[i])
				}
				if !slices.Equal(node.tier.Candidates(k), was[i]) {
					changed++
				}
			}
			if changed == 0 {
				t.Error("the tier answers as before: the check needs routing state that changed")
			}
		})
	}
}

// replayLookup runs one engine for key on node against the network's current
// tables, with no virtual time passing: send queues each query, and the
// queued queries are answered one at a time in an order drawn from seed — by
// the target's own signed table, or by a timeout for every fifth identifier.
// It returns the peers queried, in the order the send hook saw them, and how
// the lookup ended.
func replayLookup(nw *testNet, node *Node, key id.ID, padded bool, alpha int, seed int64) ([]chord.Peer, chord.Peer, DirectLookupResult, error) {
	return replay(nw, node, key, padded, alpha, seed, func(*tableLookup) {})
}

// replay is replayLookup calling after with the engine once it has launched
// and again after every reply.
func replay(nw *testNet, node *Node, key id.ID, padded bool, alpha int, seed int64, after func(*tableLookup)) ([]chord.Peer, chord.Peer, DirectLookupResult, error) {
	type query struct {
		target chord.Peer
		done   func(transport.Message, error)
	}
	var (
		queue  []query
		sent   []chord.Peer
		owner  chord.Peer
		result DirectLookupResult
		ended  error
	)
	tl := node.newTableLookup(key, padded, func(p chord.Peer, done func(transport.Message, error)) bool {
		queue, sent = append(queue, query{p, done}), append(sent, p)
		return true
	}, func(o chord.Peer, res DirectLookupResult, err error) { owner, result, ended = o, res, err })
	tl.alpha = alpha
	rng := rand.New(rand.NewSource(seed))
	tl.step()
	after(tl)
	for len(queue) > 0 {
		i := rng.Intn(len(queue))
		q := queue[i]
		queue = slices.Delete(queue, i, i+1)
		if q.target.ID%5 == 0 {
			q.done(nil, transport.ErrTimeout)
		} else {
			q.done(chord.GetTableResp{Table: nw.Nodes[q.target.Addr].Chord.Table(true, false)}, nil)
		}
		after(tl)
	}
	return sent, owner, result, ended
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

// A query that could not be sent, for want of a relay pair, is neither
// counted nor marked: Stats.Queries counts only what went out, and the
// candidate is retried once a reply frees the window.
func TestUnsentQueryNotCounted(t *testing.T) {
	seeds := []chord.Peer{{ID: 3000, Addr: 1}, {ID: 5000, Addr: 2}, {ID: 7000, Addr: 3}}
	var ended error
	tl, _ := newCandidateLookup(9000, seeds, func(_ chord.Peer, _ DirectLookupResult, err error) { ended = err })
	tl.alpha = 3
	var (
		sent    []id.ID
		replies []func(transport.Message, error)
		pairs   = 1
	)
	tl.send = func(p chord.Peer, done func(transport.Message, error)) bool {
		if pairs == 0 {
			return false
		}
		pairs--
		sent, replies = append(sent, p.ID), append(replies, done)
		return true
	}
	counted := func(when string, want ...id.ID) {
		t.Helper()
		if !slices.Equal(sent, want) || tl.stats.Queries != len(sent) {
			t.Fatalf("%s: sent %v, want %v; stats count %d queries", when, sent, want, tl.stats.Queries)
		}
	}

	tl.step() // one pair: 7000 goes out, 5000 cannot
	counted("first step", 7000)
	pairs = 1
	replies[0](nil, transport.ErrTimeout)
	counted("after the first reply", 7000, 5000)
	replies[1](nil, transport.ErrTimeout) // no pair for 3000 and nothing in flight
	counted("at the end", 7000, 5000)
	if !tl.finished || ended != ErrNoRelays {
		t.Errorf("finished %v with %v, want ErrNoRelays", tl.finished, ended)
	}
}

// settleRing is a stabilized 60-node ring, an initiator on it, and five
// consecutive members p[0..4] halfway around from the initiator: the key just
// after p[3] is owned by p[4], and p[0..3] precede it in order.
func settleRing(t *testing.T) (*testNet, *Node, []chord.Peer, id.ID) {
	t.Helper()
	nw := buildTestNet(t, 23, 60, nil)
	nw.Sim.Run(40 * time.Second)
	node := nw.Node(0)
	ring := nw.Ring.AlivePeers()
	half := node.Self().ID.Add(1 << 63)
	far := max(0, slices.IndexFunc(ring, func(p chord.Peer) bool { return p.ID >= half }))
	var p []chord.Peer
	for i := range 5 {
		p = append(p, ring[(far+i)%len(ring)])
	}
	return nw, node, p, p[3].ID.Add(1)
}

// settleLookup starts an unpadded lookup for key on node whose tier hands it
// exactly seeds, all queried at once. It returns the engine and each query's
// reply callback by target address.
func settleLookup(node *Node, key id.ID, seeds []chord.Peer, finish func(chord.Peer, DirectLookupResult, error)) (*tableLookup, map[transport.Addr]func(transport.Message, error)) {
	node.tier = seedTier{seeds: seeds}
	replies := map[transport.Addr]func(transport.Message, error){}
	tl := node.newTableLookup(key, false, func(p chord.Peer, done func(transport.Message, error)) bool {
		replies[p.Addr] = done
		return true
	}, finish)
	tl.alpha = len(seeds)
	tl.step()
	return tl, replies
}

// tableReply is q's own signed table as a GetTableReq answer.
func tableReply(nw *testNet, q chord.Peer) chord.GetTableResp {
	return chord.GetTableResp{Table: nw.Nodes[q.Addr].Chord.Table(true, false)}
}

// An α = 3 lookup over simnet whose first reply comes from the node closest
// to the key, with its successor list naming the owner, answers then: the two
// queries behind it are still in flight. It returns the owner an α = 1 lookup
// returns, after the same single query.
func TestSettledLookupSkipsStragglers(t *testing.T) {
	nw, node, _, _ := settleRing(t)
	f := nw.Ring.Owner(node.Self().ID.Add(1 << 62)) // a finger, far outside the successor window
	key := f.ID.Add(1)                              // nothing lies between f and the key

	lookup := func(alpha int) (chord.Peer, []chord.Peer, time.Duration, int) {
		node.cfg.LookupParallelism = alpha
		var (
			owner   chord.Peer
			sent    []chord.Peer
			took    time.Duration
			replied int
			ended   = -1
		)
		start := nw.Sim.Now()
		tl := node.newTableLookup(key, false, func(p chord.Peer, done func(transport.Message, error)) bool {
			sent = append(sent, p)
			delay := time.Duration(0)
			if p != f {
				delay = 5 * time.Second // the stragglers
			}
			nw.Sim.After(delay, func() {
				node.tr.Call(node.Self().Addr, p.Addr, chord.GetTableReq{IncludeSuccessors: true}, node.cfg.Chord.RPCTimeout,
					func(m transport.Message, err error) { replied++; done(m, err) })
			})
			return true
		}, func(o chord.Peer, _ DirectLookupResult, err error) {
			if ended >= 0 || err != nil {
				t.Fatalf("α=%d: finish called again or failed: %v", alpha, err)
			}
			owner, took, ended = o, nw.Sim.Now()-start, replied
		})
		tl.step()
		nw.Sim.Run(nw.Sim.Now() + time.Minute)
		return owner, sent, took, ended
	}

	owner1, sent1, _, _ := lookup(1)
	owner3, sent3, took, replied := lookup(3)
	if want := nw.Ring.Owner(key); owner1 != want || owner3 != want {
		t.Fatalf("owners α=1 %v, α=3 %v; want %v", owner1, owner3, want)
	}
	if len(sent1) != 1 || sent1[0] != f {
		t.Fatalf("α=1 queried %v, want only %v", sent1, f)
	}
	if len(sent3) != 3 || sent3[0] != f {
		t.Fatalf("α=3 queried %v, want %v and two stragglers", sent3, f)
	}
	if replied != 1 || took >= time.Second {
		t.Errorf("α=3 answered after %v with %d replies in; want it settled by the first reply, before the stragglers", took, replied)
	}
}

// A lookup does not answer while a query in flight targets a node between
// closestQueried and the key, nor while closestQueried's own successor list
// has not named the owner — even with nothing left to query.
func TestSettleWaitsForCloserQueryAndOwner(t *testing.T) {
	nw, node, p, key := settleRing(t)
	var owner chord.Peer
	var res DirectLookupResult
	finish := func(o chord.Peer, r DirectLookupResult, err error) {
		if err != nil {
			t.Fatalf("lookup failed: %v", err)
		}
		owner, res = o, r
	}

	// p[2]'s table names the owner p[4], but p[3] is still in flight.
	tl, replies := settleLookup(node, key, p[2:4], finish)
	replies[p[2].Addr](tableReply(nw, p[2]), nil)
	if tl.finished {
		t.Fatal("answered while the query to p[3], closer to the key than closestQueried, was in flight")
	}
	replies[p[3].Addr](tableReply(nw, p[3]), nil)
	if !tl.finished || owner != p[4] || res.Evidence.Owner != p[3] {
		t.Fatalf("after p[3] answered: finished %v, owner %v by %v's table; want %v by %v's", tl.finished, owner, res.Evidence.Owner, p[4], p[3])
	}

	// p[2] names the owner, then p[3] answers with a validly signed table
	// that names no successor: nothing is left to query and the only query
	// in flight, to p[1], lies behind closestQueried, but the owner was not
	// named by closestQueried's own successor list.
	bare := nw.Nodes[p[3].Addr].Chord.Table(true, false).Clone()
	bare.Successors = nil
	ident := nw.Nodes[p[3].Addr].Chord.Identity()
	if err := bare.Sign(ident.Scheme, ident.Key); err != nil {
		t.Fatal(err)
	}
	owner = chord.NoPeer
	tl, replies = settleLookup(node, key, p[1:4], finish)
	replies[p[2].Addr](tableReply(nw, p[2]), nil)
	replies[p[3].Addr](chord.GetTableResp{Table: bare}, nil)
	if tl.finished || tl.closestQueried != p[3] || tl.ownerEvidence == nil {
		t.Fatalf("finished %v at closestQueried %v (owner found %v), though %v never named the owner", tl.finished, tl.closestQueried, tl.ownerEvidence != nil, p[3])
	}
	replies[p[1].Addr](tableReply(nw, p[1]), nil)
	if !tl.finished || owner != p[4] || res.Evidence.Owner != p[2] {
		t.Fatalf("after p[1] answered: finished %v, owner %v by %v's table; want %v by %v's", tl.finished, owner, res.Evidence.Owner, p[4], p[2])
	}
}

// Replies that arrive after the lookup settled are still verified: a valid
// table reaches the finger-surveillance buffer, while another node's table or
// a bad signature does not.
func TestLateRepliesVerifiedAndBuffered(t *testing.T) {
	nw, node, p, key := settleRing(t)
	node.evidence.tableBuffer = tableRing{}
	tl, replies := settleLookup(node, key, p[:4], func(chord.Peer, DirectLookupResult, error) {})
	replies[p[3].Addr](tableReply(nw, p[3]), nil)
	if !tl.finished {
		t.Fatal("the lookup did not settle on p[3]'s reply")
	}
	forged := nw.Nodes[p[0].Addr].Chord.Table(true, false).Clone()
	forged.Timestamp++ // no longer what p[0] signed
	replies[p[0].Addr](chord.GetTableResp{Table: forged}, nil)
	replies[p[1].Addr](tableReply(nw, p[0]), nil) // p[0]'s table in p[1]'s reply
	replies[p[2].Addr](tableReply(nw, p[2]), nil)

	var buffered []chord.Peer
	for i := range node.evidence.tableBuffer.len() {
		buffered = append(buffered, node.evidence.tableBuffer.at(i).Owner)
	}
	if want := []chord.Peer{p[3], p[2]}; !slices.Equal(buffered, want) {
		t.Errorf("buffered tables of %v, want %v: the late valid reply only", buffered, want)
	}
	if tl.stats.Rejected != 2 {
		t.Errorf("%d replies rejected, want the forged and the misattributed one", tl.stats.Rejected)
	}
}

// checkPruned fails unless every candidate of an unpadded lookup lies strictly
// inside (closestQueried, key), the only peers a query can still go to.
func checkPruned(t *testing.T, tl *tableLookup) {
	t.Helper()
	for _, c := range tl.cands {
		if !id.StrictBetween(c.ID, tl.closestQueried.ID, tl.key) {
			t.Fatalf("key %v: candidate %v is kept although closestQueried %v has passed it", tl.key, c.ID, tl.closestQueried.ID)
		}
	}
}

// An unpadded lookup drops every candidate closestQueried passes, after every
// reply, and reserves room for its first α queries alone: its array only
// grows when the candidates it holds outnumber that, and append then doubles
// it and rounds up to an allocator size class, which wastes at most an
// eighth. So its capacity stays within the larger of α and 9/4 of the most
// candidates it has held at once. A reply from a candidate
// already dropped, at α = 3, neither panics nor touches another candidate.
func TestPruneBehindClosest(t *testing.T) {
	t.Run("replayed lookups", func(t *testing.T) {
		nw := buildTestNet(t, 19, 150, nil)
		nw.Sim.Run(40 * time.Second)
		rng := rand.New(rand.NewSource(29))
		dropped := 0 // queried peers no longer in the set when the lookup ends
		for _, node := range nw.Nodes[:20] {
			for range 8 {
				key := id.ID(rng.Uint64())
				for _, alpha := range []int{1, 3} {
					peak := 0
					var last *tableLookup
					sent, _, _, _ := replay(nw, node, key, false, alpha, rng.Int63(), func(tl *tableLookup) {
						checkPruned(t, tl)
						peak = max(peak, len(tl.cands))
						if limit := max(alpha, 9*peak/4); cap(tl.cands) > limit {
							t.Fatalf("key %v α=%d: capacity %d for at most %d candidates held, want at most %d",
								key, alpha, cap(tl.cands), peak, limit)
						}
						last = tl
					})
					for _, q := range sent {
						if _, found := last.find(q.ID); !found {
							dropped++
						}
					}
				}
			}
		}
		if dropped == 0 {
			t.Error("no queried peer was ever dropped: the check needs lookups that converge over several tables")
		}
	})

	// p[2] answers first: p[0] and p[1], still in flight, fall behind it
	// and are dropped, and the query to p[3], which p[2]'s table names,
	// goes out. p[1]'s reply must leave p[3] pending, so the lookup waits
	// for p[3] and its successor list vouches for the owner p[4].
	t.Run("α=3, reply from a dropped candidate while another is in flight", func(t *testing.T) {
		nw, node, p, key := settleRing(t)
		var res DirectLookupResult
		tl, replies := settleLookup(node, key, p[:3], func(_ chord.Peer, r DirectLookupResult, _ error) { res = r })
		replies[p[2].Addr](tableReply(nw, p[2]), nil)
		checkPruned(t, tl)
		if ids := candidateIDs(tl); !slices.Equal(ids, []id.ID{p[3].ID}) || !tl.cands[0].pending {
			t.Fatalf("candidates %v after p[2] answered, want p[3] %v alone and pending", ids, p[3].ID)
		}
		replies[p[1].Addr](nil, transport.ErrTimeout)
		if !tl.cands[0].pending || tl.finished {
			t.Fatalf("p[1]'s reply cleared p[3]'s pending flag (%v) or ended the lookup (%v)", !tl.cands[0].pending, tl.finished)
		}
		replies[p[3].Addr](tableReply(nw, p[3]), nil)
		if !tl.finished || res.Owner != p[4] || res.Evidence.Owner != p[3] {
			t.Fatalf("finished %v, owner %v by %v's table; want %v by %v's", tl.finished, res.Owner, res.Evidence.Owner, p[4], p[3])
		}
		replies[p[0].Addr](tableReply(nw, p[0]), nil)
	})

	// p[3] answers first and settles the lookup with nothing left in the
	// set; the replies of the dropped p[0] and p[1] come after.
	t.Run("α=3, replies from dropped candidates once the set is empty", func(t *testing.T) {
		nw, node, p, key := settleRing(t)
		tl, replies := settleLookup(node, key, []chord.Peer{p[0], p[1], p[3]}, func(chord.Peer, DirectLookupResult, error) {})
		replies[p[3].Addr](tableReply(nw, p[3]), nil)
		if !tl.finished || len(tl.cands) != 0 {
			t.Fatalf("finished %v with candidates %v, want settled on p[3] with none left", tl.finished, candidateIDs(tl))
		}
		replies[p[1].Addr](nil, transport.ErrTimeout)
		replies[p[0].Addr](tableReply(nw, p[0]), nil)
		if tl.inFlight != 0 {
			t.Errorf("%d queries in flight after every reply", tl.inFlight)
		}
	})
}
