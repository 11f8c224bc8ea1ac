package core

import (
	"slices"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// testNet bundles a deployment with the simulator that drives it (the
// simulator is no longer part of core's API: core speaks transport only).
type testNet struct {
	*Network
	Sim *simnet.Simulator
}

// buildTestNet creates a small Octopus deployment with fast timers.
func buildTestNet(t *testing.T, seed int64, n int, mutate func(*Config)) *testNet {
	t.Helper()
	sim := simnet.New(seed)
	cfg := DefaultConfig()
	cfg.EstimatedSize = n
	cfg.WalkEvery = 5 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n+1)
	nw, err := BuildNetwork(net, n, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	return &testNet{Network: nw, Sim: sim}
}

func TestAnonQueryRoundTrip(t *testing.T) {
	nw := buildTestNet(t, 1, 40, nil)
	initiator := nw.Node(0)
	// Hand-pick relays and a target distinct from the initiator.
	head := RelayPair{First: nw.Node(1).Self(), Second: nw.Node(2).Self()}
	pair := RelayPair{First: nw.Node(3).Self(), Second: nw.Node(4).Self()}
	target := nw.Node(5)

	var got chord.RoutingTable
	done := false
	initiator.paths.anonQuery(head, pair, target.Self(), chord.GetTableReq{IncludeSuccessors: true},
		func(resp simnet.Message, err error) {
			done = true
			if err != nil {
				t.Fatalf("anonQuery: %v", err)
			}
			r, ok := resp.(chord.GetTableResp)
			if !ok {
				t.Fatalf("resp type %T", resp)
			}
			got = r.Table
		})
	nw.Sim.Run(nw.Sim.Now() + 30*time.Second)
	if !done {
		t.Fatal("anonymous query did not complete")
	}
	if got.Owner.ID != target.Self().ID {
		t.Errorf("table owner = %v, want %v", got.Owner, target.Self())
	}
	if !nw.Dir.VerifyTable(got) {
		t.Error("returned table not properly signed")
	}
}

func TestAnonQueryHidesInitiator(t *testing.T) {
	// Passive pool: managed walk-ahead refills contact their first hop
	// directly (Appendix I), which would show up as initiator traffic in
	// the observation below.
	nw := buildTestNet(t, 2, 40, func(cfg *Config) { cfg.PairPoolTarget = 0 })
	initiator := nw.Node(0)
	head := RelayPair{First: nw.Node(1).Self(), Second: nw.Node(2).Self()}
	pair := RelayPair{First: nw.Node(3).Self(), Second: nw.Node(4).Self()}
	target := nw.Node(5)

	// The queried node must see the exit relay's address, never the
	// initiator's. (Other nodes' periodic protocols also query the
	// target, so we collect every observed source address.)
	seen := map[simnet.Address]bool{}
	target.Chord.Intercept = func(from simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if _, isTable := req.(chord.GetTableReq); isTable {
			seen[from] = true
		}
		return honest, ok
	}
	initiator.paths.anonQuery(head, pair, target.Self(), chord.GetTableReq{}, func(simnet.Message, error) {})
	nw.Sim.Run(nw.Sim.Now() + 30*time.Second)
	if !seen[pair.Second.Addr] {
		t.Errorf("queried node never saw the exit relay %v (saw %v)", pair.Second.Addr, seen)
	}
	if seen[initiator.Self().Addr] {
		t.Error("initiator exposed to the queried node")
	}
}

func TestRelayDelayApplied(t *testing.T) {
	nw := buildTestNet(t, 3, 40, nil)
	initiator := nw.Node(0)
	head := RelayPair{First: nw.Node(1).Self(), Second: nw.Node(2).Self()}
	pair := RelayPair{First: nw.Node(3).Self(), Second: nw.Node(4).Self()}

	start := nw.Sim.Now()
	var took time.Duration
	initiator.paths.anonQuery(head, pair, nw.Node(5).Self(), chord.GetTableReq{},
		func(_ simnet.Message, err error) {
			if err != nil {
				t.Fatalf("anonQuery: %v", err)
			}
			took = nw.Sim.Now() - start
		})
	nw.Sim.Run(nw.Sim.Now() + 30*time.Second)
	// 10 hops at 10 ms plus B's random delay (applied on both directions).
	min := 100 * time.Millisecond
	if took < min {
		t.Errorf("round trip %v, want >= %v (delay at relay B missing?)", took, min)
	}
}

func TestRandomWalkFillsPool(t *testing.T) {
	nw := buildTestNet(t, 4, 60, nil)
	nw.Sim.Run(2 * time.Minute)
	node := nw.Node(0)
	if node.PoolSize() == 0 {
		t.Fatalf("relay pool empty after 2 minutes of walks (%d walks started, %d failed)",
			node.Stats().WalksStarted.Load(), node.Stats().WalksFailed.Load())
	}
	if node.Stats().WalksCompleted.Load() == 0 {
		t.Errorf("no walks completed of %d started", node.Stats().WalksStarted.Load())
	}
	// Walks must also feed the finger-surveillance buffer.
	if node.evidence.tableBuffer.len() == 0 {
		t.Error("walks did not buffer any fingertables")
	}
}

func TestWalkPhaseTwoVerificationCatchesBias(t *testing.T) {
	nw := buildTestNet(t, 5, 60, nil)
	node := nw.Node(0)
	colluder := nw.Node(30).Chord
	ul := nw.Node(10).Chord

	// A dishonest Ul returning an arbitrary (but correctly signed) table
	// chain must fail verification: the owners do not match the
	// seed-forced derivation.
	seed := int64(424242)
	forged := make([]chord.RoutingTable, node.Config().WalkLength)
	for i := range forged {
		forged[i] = colluder.Table(false, false)
	}
	var res walkResult
	if _, err := node.verifyPhaseTwo(ul.Self, seed, forged, &res); err == nil {
		t.Error("forged phase-2 chain passed verification")
	}

	// A chain of the right length whose first owner matches Ul but whose
	// subsequent owners break the seed derivation must also fail.
	forged[0] = ul.Table(false, false)
	if _, err := node.verifyPhaseTwo(ul.Self, seed, forged, &res); err == nil {
		t.Error("owner-mismatched phase-2 chain passed verification")
	}

	// A truncated chain fails outright.
	if _, err := node.verifyPhaseTwo(ul.Self, seed, forged[:1], &res); err == nil {
		t.Error("truncated phase-2 chain passed verification")
	}

	// An unsigned chain fails signature checks.
	unsigned := make([]chord.RoutingTable, node.Config().WalkLength)
	for i := range unsigned {
		unsigned[i] = ul.Table(false, false)
		unsigned[i].Sig = nil
	}
	if _, err := node.verifyPhaseTwo(ul.Self, seed, unsigned, &res); err == nil {
		t.Error("unsigned phase-2 chain passed verification")
	}
}

func TestWalkPhaseTwoHonestRoundTrip(t *testing.T) {
	nw := buildTestNet(t, 51, 60, nil)
	node := nw.Node(0)
	completed, failed := 0, 0
	var pairs []RelayPair
	for i := 0; i < 10; i++ {
		node.runWalk(func(res walkResult, err error) {
			if err != nil {
				failed++
				return
			}
			completed++
			pairs = append(pairs, res.pair)
		})
		nw.Sim.Run(nw.Sim.Now() + 30*time.Second)
	}
	if completed == 0 {
		t.Fatalf("no honest walks completed (%d failed)", failed)
	}
	for _, p := range pairs {
		if !p.Valid() {
			t.Error("walk produced an invalid pair")
		}
	}
	// A walk may legitimately circle back to the initiator; the POOL
	// filter must reject such pairs (and degenerate ones).
	node.pairs.add(RelayPair{First: node.Self(), Second: nw.Node(1).Self()})
	node.pairs.add(RelayPair{First: nw.Node(2).Self(), Second: nw.Node(2).Self()})
	for _, e := range node.pairs.stock {
		if e.pair.contains(node.Self()) || e.pair.First.ID == e.pair.Second.ID {
			t.Errorf("pool accepted a degenerate pair: %+v", e.pair)
		}
	}
}

func TestAnonLookupCorrect(t *testing.T) {
	nw := buildTestNet(t, 6, 80, nil)
	// Let walks stock the relay pools first.
	nw.Sim.Run(3 * time.Minute)
	node := nw.Node(0)
	rng := nw.Sim.Rand()
	const lookups = 10
	done, correct := 0, 0
	for i := 0; i < lookups; i++ {
		key := id.ID(rng.Uint64())
		want := nw.Ring.Owner(key)
		node.AnonLookup(key, func(owner chord.Peer, stats LookupStats, err error) {
			done++
			if err != nil {
				t.Logf("lookup error: %v", err)
				return
			}
			if owner == want {
				correct++
			} else {
				t.Errorf("owner = %v, want %v", owner, want)
			}
		})
		nw.Sim.Run(nw.Sim.Now() + time.Minute)
	}
	if done != lookups {
		t.Fatalf("%d/%d lookups completed", done, lookups)
	}
	if correct < lookups {
		t.Errorf("only %d/%d lookups correct", correct, lookups)
	}
}

func TestAnonLookupNeverRevealsKeyOrInitiator(t *testing.T) {
	// Disable the initiator's own periodic machinery (walks, checks,
	// finger updates all send direct queries) so every observed direct
	// contact is attributable to the lookup itself.
	nw := buildTestNet(t, 7, 80, func(cfg *Config) {
		cfg.WalkEvery = time.Hour
		cfg.SurveilEvery = time.Hour
		cfg.Chord.FixFingersEvery = time.Hour
		cfg.PairPoolTarget = 0 // demand refills would walk (and thus query) directly
	})
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	self := node.Self().Addr
	// Stock the relay pool by hand since walks are off.
	rng := nw.Sim.Rand()
	for i := 0; i < 40; i++ {
		a := nw.Node(simnet.Address(1 + rng.Intn(79))).Self()
		b := nw.Node(simnet.Address(1 + rng.Intn(79))).Self()
		if a.ID != b.ID {
			node.pairs.add(RelayPair{First: a, Second: b})
		}
	}

	sawFindNext := false
	directTableQueries := 0
	for i := 1; i < 80; i++ {
		peer := nw.Node(simnet.Address(i))
		peer.Chord.Intercept = func(from simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
			switch req.(type) {
			case chord.FindNextReq:
				sawFindNext = true
			case chord.GetTableReq:
				if from == self {
					directTableQueries++
				}
			}
			return honest, ok
		}
	}
	fired := false
	node.AnonLookup(id.ID(1234567), func(_ chord.Peer, stats LookupStats, err error) {
		fired = true
		if err != nil {
			t.Errorf("lookup failed: %v", err)
		}
		if stats.Dummies == 0 {
			t.Error("no dummy queries interleaved")
		}
	})
	nw.Sim.Run(nw.Sim.Now() + 2*time.Minute)
	if !fired {
		t.Fatal("lookup did not complete")
	}
	if sawFindNext {
		t.Error("anonymous lookup exposed the key via FindNextReq")
	}
	if directTableQueries > 0 {
		t.Errorf("initiator contacted %d queried nodes directly", directTableQueries)
	}
}

func TestDirectTableLookupEvidence(t *testing.T) {
	nw := buildTestNet(t, 8, 80, nil)
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	// Pick a key whose owner is NOT already in the initiator's local
	// state, so the lookup must actually query and gather evidence.
	locallyKnown := map[id.ID]bool{}
	for _, p := range node.Chord.Fingers() {
		locallyKnown[p.ID] = true
	}
	for _, p := range node.Chord.Successors() {
		locallyKnown[p.ID] = true
	}
	rng := nw.Sim.Rand()
	var key id.ID
	var want chord.Peer
	for {
		key = id.ID(rng.Uint64())
		want = nw.Ring.Owner(key)
		if !locallyKnown[want.ID] && want.ID != node.Self().ID {
			break
		}
	}
	fired := false
	node.DirectTableLookup(key, func(res DirectLookupResult, _ LookupStats, err error) {
		fired = true
		if err != nil {
			t.Fatalf("direct lookup: %v", err)
		}
		if res.Owner != want {
			t.Errorf("owner = %v, want %v", res.Owner, want)
		}
		if !res.HasEvidence {
			t.Fatal("no evidence table for a remotely-resolved owner")
		}
		if !nw.Dir.VerifyTable(res.Evidence) {
			t.Error("evidence table signature invalid")
		}
		if !assertsOwner(res.Evidence, key, res.Owner) {
			t.Error("evidence table does not assert the returned owner")
		}
	})
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if !fired {
		t.Fatal("lookup did not complete")
	}
}

func TestDirectTableLookupCorrect(t *testing.T) {
	nw := buildTestNet(t, 14, 120, nil)
	nw.Sim.Run(10 * time.Second)
	rng := nw.Sim.Rand()
	const lookups = 40
	done := 0
	for i := 0; i < lookups; i++ {
		node := nw.Node(simnet.Address(rng.Intn(120)))
		key := id.ID(rng.Uint64())
		want := nw.Ring.Owner(key)
		node.DirectTableLookup(key, func(res DirectLookupResult, _ LookupStats, err error) {
			done++
			if err != nil {
				t.Errorf("direct lookup failed: %v", err)
				return
			}
			if res.Owner != want {
				t.Errorf("owner = %v, want %v", res.Owner, want)
			}
		})
	}
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if done != lookups {
		t.Fatalf("%d/%d lookups completed", done, lookups)
	}
}

// A lookup over signed tables never puts the key on the wire: it sends each
// node it queries one GetTableReq, as many as Stats.Queries counts, and no
// node ever sees a FindNextReq.
func TestDirectTableLookupSendsOnlyTableRequests(t *testing.T) {
	nw := buildTestNet(t, 18, 80, nil)
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	self := node.Self().Addr
	sawFindNext := false
	askedForTable := map[simnet.Address]int{}
	for _, peer := range nw.Nodes {
		peer.Chord.Intercept = func(from simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
			switch r := req.(type) {
			case chord.FindNextReq:
				sawFindNext = true
			case chord.GetTableReq:
				if from == self && r.IncludeSuccessors && !r.IncludePredecessors { // not a walk or surveillance
					askedForTable[peer.Self().Addr]++
				}
			}
			return honest, ok
		}
	}
	var st LookupStats
	fired := false
	node.DirectTableLookup(node.Self().ID.Add(1<<63), func(_ DirectLookupResult, s LookupStats, err error) {
		fired, st = true, s
		if err != nil {
			t.Fatalf("lookup failed: %v", err)
		}
	})
	// Stragglers land well within the RPC timeout, and the node's own
	// finger updates start only at the 30 s boundary.
	nw.Sim.Run(25 * time.Second)
	if !fired {
		t.Fatal("lookup did not complete")
	}
	if st.Queries == 0 {
		t.Fatal("a key across the ring resolved without a query")
	}
	if len(askedForTable) != st.Queries {
		t.Errorf("%d nodes were sent a GetTableReq for %d queries", len(askedForTable), st.Queries)
	}
	for addr, n := range askedForTable {
		if n != 1 {
			t.Errorf("node %v was sent %d GetTableReqs, want 1", addr, n)
		}
	}
	if sawFindNext {
		t.Error("a lookup over signed tables exposed the key via FindNextReq")
	}
}

// An anonymous lookup whose every relay and candidate is dead reaches nobody;
// it must still end, with an error, once its queries time out.
func TestAnonLookupDeadNetworkFails(t *testing.T) {
	nw := buildTestNet(t, 20, 50, nil)
	nw.Sim.Run(2 * time.Minute) // stock the relay pool
	node := nw.Node(0)
	if node.PoolSize() == 0 {
		t.Fatal("relay pool empty before the network dies")
	}
	for i := 1; i < 50; i++ {
		nw.Node(simnet.Address(i)).Stop()
	}
	fired := false
	node.AnonLookup(node.Self().ID.Add(1<<63), func(owner chord.Peer, _ LookupStats, err error) {
		fired = true
		if err == nil {
			t.Errorf("lookup against a dead network resolved %v", owner)
		}
	})
	nw.Sim.Run(nw.Sim.Now() + 10*time.Minute)
	if !fired {
		t.Fatal("lookup never terminated")
	}
}

// fingerUpdateNet builds a deployment whose periodic machinery is off, so a
// test drives the §4.5 finger update by hand, and stocks the initiator's
// relay pool by hand for the consistency probe's anonymous second step.
func fingerUpdateNet(t *testing.T, seed int64) (*testNet, *Node) {
	t.Helper()
	nw := buildTestNet(t, seed, 60, func(cfg *Config) {
		cfg.WalkEvery = time.Hour
		cfg.SurveilEvery = time.Hour
		cfg.Chord.FixFingersEvery = time.Hour
		cfg.PairPoolTarget = 0
	})
	nw.Sim.Run(10 * time.Second)
	node := nw.Node(0)
	rng := nw.Sim.Rand()
	for i := 0; i < 40; i++ {
		a := nw.Node(simnet.Address(1 + rng.Intn(59))).Self()
		b := nw.Node(simnet.Address(1 + rng.Intn(59))).Self()
		if a.ID != b.ID {
			node.pairs.add(RelayPair{First: a, Second: b})
		}
	}
	return nw, node
}

// countProbes counts the consistency probes (predecessor-list requests) the
// node at from sends to target.
func countProbes(target *Node, from simnet.Address) *int {
	probes := 0
	target.Chord.Intercept = func(src simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if r, isTable := req.(chord.GetTableReq); isTable && r.IncludePredecessors && src == from {
			probes++
		}
		return honest, ok
	}
	return &probes
}

// A lookup result equal to the installed finger was vetted when first
// installed: the update sends it no consistency probe and keeps the finger.
func TestFingerUpdateSkipsProbeWhenUnchanged(t *testing.T) {
	nw, node := fingerUpdateNet(t, 21)
	slot := node.cfg.Chord.Fingers - 1
	want := nw.Ring.Owner(node.Chord.FingerTarget(slot))
	if got := node.Chord.Fingers()[slot]; got != want {
		t.Fatalf("finger %d = %v before the update, want %v", slot, got, want)
	}
	probes := countProbes(nw.Node(want.Addr), node.Self().Addr)
	node.updateFingerSlot(slot)
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if *probes != 0 {
		t.Errorf("%d probes for a finger the lookup confirmed, want 0", *probes)
	}
	if got := node.Chord.Fingers()[slot]; got != want {
		t.Errorf("finger %d = %v after the update, want %v", slot, got, want)
	}
}

// A finger slot whose lookup result differs from the installed finger gets
// the result only after the consistency probe passes.
func TestFingerUpdateInstallsVettedOwner(t *testing.T) {
	nw, node := fingerUpdateNet(t, 21)
	slot := node.cfg.Chord.Fingers - 1
	want := nw.Ring.Owner(node.Chord.FingerTarget(slot))
	probes := countProbes(nw.Node(want.Addr), node.Self().Addr)

	node.Chord.SetFinger(slot, chord.NoPeer)
	node.updateFingerSlot(slot)
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if *probes != 1 {
		t.Errorf("%d probes for a cleared finger, want 1", *probes)
	}
	if got := node.Chord.Fingers()[slot]; got != want {
		t.Errorf("finger %d = %v after the update, want %v", slot, got, want)
	}
	if got := node.Stats().ReportsSent.Load(); got != 0 {
		t.Errorf("%d reports for an honest update", got)
	}
}

// A lookup biased by the key's predecessor, which drops the true owner from
// its successor list, names a later node; the consistency probe finds the
// true owner in between, so the biased result is never installed and the
// node whose signed table vouched for it is reported.
func TestFingerUpdateVetoesBiasedOwner(t *testing.T) {
	nw, node := fingerUpdateNet(t, 22)
	slot := node.cfg.Chord.Fingers - 1
	want := nw.Ring.Owner(node.Chord.FingerTarget(slot))
	peers := nw.Ring.AlivePeers()
	i := slices.Index(peers, want)
	evil := peers[(i+len(peers)-1)%len(peers)]
	if evil.Addr == node.Self().Addr {
		t.Fatal("the initiator precedes the finger target's owner: pick another seed")
	}
	installSuccListManipulator(nw.Network, evil.Addr)

	node.updateFingerSlot(slot)
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if got := node.Chord.Fingers()[slot]; got != want {
		t.Errorf("finger %d = %v after a biased update, want it left at %v", slot, got, want)
	}
	if got := node.Stats().ReportsSent.Load(); got != 1 {
		t.Errorf("%d reports sent, want one against %v", got, evil)
	}
}

// installSuccListManipulator makes the node at addr drop honest successors
// (all but the last) from every successor list it serves, re-signing the
// table — the §4.3 lookup bias attack.
func installSuccListManipulator(nw *Network, addr simnet.Address) {
	node := nw.Node(addr)
	ident := node.Chord.Identity()
	mutate := func(table chord.RoutingTable) chord.RoutingTable {
		if len(table.Successors) > 1 {
			table.Successors = table.Successors[len(table.Successors)-1:]
			_ = table.Sign(ident.Scheme, ident.Key)
		}
		return table
	}
	node.Chord.Intercept = func(_ simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if r, isTable := honest.(chord.GetTableResp); isTable {
			r.Table = mutate(r.Table.Clone())
			return r, ok
		}
		return honest, ok
	}
}

func TestNeighborSurveillanceCatchesBiasAttacker(t *testing.T) {
	nw := buildTestNet(t, 9, 60, nil)
	evil := simnet.Address(20)
	installSuccListManipulator(nw.Network, evil)
	evilID := nw.Node(evil).Self().ID

	nw.Sim.Run(10 * time.Minute)
	if !nw.CA.Revoked(evilID) {
		t.Fatalf("manipulator never revoked; CA stats: %+v", nw.CA.Stats())
	}
	if nw.Node(evil).Chord.Running() {
		t.Error("revoked node still running")
	}
	// No honest node may be revoked (Table 2: zero false positives).
	revoked := nw.CA.Stats().Revocations
	if revoked != 1 {
		t.Errorf("revocations = %d, want exactly 1", revoked)
	}
}

func TestNoFalsePositivesUnderChurn(t *testing.T) {
	nw := buildTestNet(t, 10, 60, nil)
	churner := simnet.NewChurner(nw.Sim, 10*time.Minute)
	churner.OnDeath = func(addr simnet.Address) {
		if node := nw.Node(addr); node != nil {
			node.Stop()
		}
	}
	churner.OnRejoin = func(addr simnet.Address) {
		alive := nw.Ring.AlivePeers()
		if len(alive) == 0 {
			return
		}
		bootstrap := alive[nw.Sim.Rand().Intn(len(alive))]
		nw.Rejoin(addr, bootstrap, nw.Node(0).Config(), func(*Node, error) {})
	}
	for i := 0; i < 60; i++ {
		churner.Track(simnet.Address(i))
	}
	nw.Sim.Run(10 * time.Minute)
	if got := nw.CA.Stats().Revocations; got != 0 {
		t.Errorf("honest churning network produced %d revocations (false positives)", got)
	}
}

func TestOmittedFromSuccessors(t *testing.T) {
	owner := chord.Peer{ID: 100, Addr: 1}
	mk := func(ids ...id.ID) chord.RoutingTable {
		t := chord.RoutingTable{Owner: owner}
		for i, x := range ids {
			t.Successors = append(t.Successors, chord.Peer{ID: x, Addr: simnet.Address(i + 2)})
		}
		return t
	}
	x := chord.Peer{ID: 130, Addr: 99}
	tests := []struct {
		name  string
		table chord.RoutingTable
		want  bool
	}{
		{"present", mk(110, 130, 150), false},
		{"skipped", mk(110, 150), true},
		{"list ends before x", mk(110, 120), false},
		{"empty list", mk(), false},
		{"x is head position", mk(150), true},
		{"owner itself", chord.RoutingTable{Owner: x}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			who := x
			if tt.name == "owner itself" {
				who = x
			}
			if got := OmittedFromSuccessors(tt.table, who); got != tt.want {
				t.Errorf("OmittedFromSuccessors = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchIdealFinger(t *testing.T) {
	owner := id.ID(1000)
	// A finger just past owner+2^40 must match that target.
	f := owner.FingerTarget(40).Add(37)
	got := matchIdealFinger(owner, f)
	if got != owner.FingerTarget(40) {
		t.Errorf("matchIdealFinger = %v, want target 40", got)
	}
	// A finger just past owner+2^63 matches the top target.
	f = owner.FingerTarget(63).Add(1)
	if got := matchIdealFinger(owner, f); got != owner.FingerTarget(63) {
		t.Errorf("matchIdealFinger = %v, want target 63", got)
	}
}

func TestCARejectsStaleEvidence(t *testing.T) {
	nw := buildTestNet(t, 11, 40, nil)
	victim := nw.Node(5).Chord
	// Build a genuinely manipulated table but let it age out.
	table := victim.Table(true, false)
	table.Successors = table.Successors[len(table.Successors)-1:]
	ident := victim.Identity()
	_ = table.Sign(ident.Scheme, ident.Key)

	nw.Sim.Run(5 * time.Minute) // evidence is now far older than Freshness
	missing := nw.Node(6).Self()
	nw.Net.Call(nw.Node(7).Self().Addr, nw.CA.Addr(), ReportMsg{
		Kind:     ReportNeighborOmission,
		Accused:  victim.Self,
		Missing:  missing,
		Evidence: []chord.RoutingTable{table},
	}, time.Second, func(simnet.Message, error) {})
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if nw.CA.Revoked(victim.Self.ID) {
		t.Error("CA acted on stale evidence")
	}
	if nw.CA.Stats().StaleEvidence == 0 {
		t.Error("stale evidence not counted")
	}
}

func TestCAIgnoresDeadMissingNode(t *testing.T) {
	nw := buildTestNet(t, 12, 40, nil)
	nw.Sim.Run(10 * time.Second)
	accusedNode := nw.Node(5).Chord
	// The "missing" node is dead — omitting it is legitimate.
	missing := nw.Node(6).Self()
	nw.Node(6).Stop()

	table := accusedNode.Table(true, false)
	// Forge an omission-shaped table (drop first successor = missing).
	var filtered []chord.Peer
	for _, s := range table.Successors {
		if s.ID != missing.ID {
			filtered = append(filtered, s)
		}
	}
	table.Successors = filtered
	ident := accusedNode.Identity()
	_ = table.Sign(ident.Scheme, ident.Key)

	nw.Net.Call(nw.Node(7).Self().Addr, nw.CA.Addr(), ReportMsg{
		Kind:     ReportNeighborOmission,
		Accused:  accusedNode.Self,
		Missing:  missing,
		Evidence: []chord.RoutingTable{table},
	}, time.Second, func(simnet.Message, error) {})
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	if nw.CA.Revoked(accusedNode.Self.ID) {
		t.Error("CA revoked a node for omitting a dead neighbor")
	}
	if nw.CA.Stats().FalseAlarms == 0 {
		t.Error("investigation of a dead node should count as a false alarm")
	}
}

func TestSelectiveDoSDropperIdentified(t *testing.T) {
	nw := buildTestNet(t, 13, 60, func(cfg *Config) {
		cfg.DoSDefense = true
	})
	nw.Sim.Run(30 * time.Second)

	dropper := nw.Node(25)
	dropForwards(dropper)

	// Use the dropper as relay Ci on a hand-built path so the query dies.
	initiator := nw.Node(0)
	head := RelayPair{First: nw.Node(1).Self(), Second: nw.Node(2).Self()}
	pair := RelayPair{First: dropper.Self(), Second: nw.Node(4).Self()}
	initiator.paths.anonQuery(head, pair, nw.Node(5).Self(), chord.GetTableReq{},
		func(_ simnet.Message, err error) {
			if err == nil {
				t.Error("dropped query unexpectedly succeeded")
			}
		})
	nw.Sim.Run(nw.Sim.Now() + 5*time.Minute)
	if !nw.CA.Revoked(dropper.Self().ID) {
		t.Fatalf("dropper never revoked; CA stats: %+v", nw.CA.Stats())
	}
}

func TestReportMessageSizes(t *testing.T) {
	r := ReportMsg{Evidence: []chord.RoutingTable{{Fingers: make([]chord.Peer, 12)}}}
	if r.Size() <= (ReportAck{}).Size() {
		t.Error("report should outweigh its ack")
	}
	fw := RelayForward{Depth: 4, Exit: &ExitAction{Req: chord.GetTableReq{}}}
	if fw.Size() <= (chord.GetTableReq{}).Size() {
		t.Error("onion overhead missing from RelayForward size")
	}
}
