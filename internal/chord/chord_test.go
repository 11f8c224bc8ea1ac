package chord

import (
	"math/rand"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// testEnv bundles a simulator, network, and ring for routing-layer tests.
type testEnv struct {
	sim  *simnet.Simulator
	net  *simnet.Network
	ring *Ring
}

func newEnv(t *testing.T, n int, cfg Config) *testEnv {
	t.Helper()
	sim := simnet.New(1234)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n)
	ring := BuildRing(net, cfg, n, nil)
	return &testEnv{sim: sim, net: net, ring: ring}
}

func TestRingInitialStateConsistent(t *testing.T) {
	env := newEnv(t, 50, DefaultConfig())
	peers := env.ring.AlivePeers()
	if len(peers) != 50 {
		t.Fatalf("alive peers = %d, want 50", len(peers))
	}
	for i, p := range peers {
		node := env.ring.Node(p.Addr)
		succs := node.Successors()
		if len(succs) != DefaultConfig().Successors {
			t.Fatalf("node %d has %d successors, want %d", i, len(succs), DefaultConfig().Successors)
		}
		// First successor must be the next peer on the sorted ring.
		want := peers[(i+1)%len(peers)]
		if succs[0] != want {
			t.Errorf("node %d succ[0] = %v, want %v", i, succs[0], want)
		}
		preds := node.Predecessors()
		wantPred := peers[(i-1+len(peers))%len(peers)]
		if preds[0] != wantPred {
			t.Errorf("node %d pred[0] = %v, want %v", i, preds[0], wantPred)
		}
		// Every finger must be the true successor of its target.
		for slot, f := range node.Fingers() {
			target := node.FingerTarget(slot)
			if f != env.ring.Owner(target) {
				t.Errorf("node %d finger %d = %v, want %v", i, slot, f, env.ring.Owner(target))
			}
		}
	}
}

func TestLookupCorrectnessStaticRing(t *testing.T) {
	env := newEnv(t, 200, DefaultConfig())
	rng := rand.New(rand.NewSource(99))
	const lookups = 150
	done := 0
	for i := 0; i < lookups; i++ {
		key := id.ID(rng.Uint64())
		initiator := env.ring.Node(simnet.Address(rng.Intn(200)))
		want := env.ring.Owner(key)
		initiator.Lookup(key, func(owner Peer, stats LookupStats, err error) {
			done++
			if err != nil {
				t.Errorf("lookup %d failed: %v", i, err)
				return
			}
			if owner != want {
				t.Errorf("lookup %d: owner = %v, want %v", i, owner, want)
			}
		})
	}
	env.sim.Run(env.sim.Now() + time.Minute)
	if done != lookups {
		t.Fatalf("only %d/%d lookups completed", done, lookups)
	}
}

func TestLookupHopCountLogarithmic(t *testing.T) {
	env := newEnv(t, 512, DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	totalHops, count := 0, 0
	for i := 0; i < 100; i++ {
		key := id.ID(rng.Uint64())
		n := env.ring.Node(simnet.Address(rng.Intn(512)))
		n.Lookup(key, func(_ Peer, stats LookupStats, err error) {
			if err == nil {
				totalHops += stats.Hops
				count++
			}
		})
	}
	env.sim.Run(env.sim.Now() + time.Minute)
	if count == 0 {
		t.Fatal("no lookups completed")
	}
	avg := float64(totalHops) / float64(count)
	// log2(512) = 9; average hops should be around log2(N)/2 ≈ 4.5 and
	// certainly well below N.
	if avg > 12 {
		t.Errorf("average hops = %.1f, want O(log N) ≈ ≤12", avg)
	}
	if avg < 1 {
		t.Errorf("average hops = %.1f, suspiciously low", avg)
	}
}

func TestLookupOwnKeyRange(t *testing.T) {
	env := newEnv(t, 20, DefaultConfig())
	peers := env.ring.AlivePeers()
	node := env.ring.Node(peers[3].Addr)
	// A key exactly at the node's own ID is owned by the node itself.
	fired := false
	node.Lookup(node.Self.ID, func(owner Peer, _ LookupStats, err error) {
		fired = true
		if err != nil || owner != node.Self {
			t.Errorf("owner of self ID = %v (err %v), want self", owner, err)
		}
	})
	// A key just above the predecessor is also owned by the node.
	pred := peers[2]
	node.Lookup(pred.ID.Add(1), func(owner Peer, _ LookupStats, err error) {
		if err != nil || owner != node.Self {
			t.Errorf("owner of pred+1 = %v (err %v), want self", owner, err)
		}
	})
	env.sim.Run(env.sim.Now() + time.Second)
	if !fired {
		t.Fatal("lookup callback did not fire")
	}
}

func TestStabilizationRepairsAfterDeath(t *testing.T) {
	cfg := DefaultConfig()
	env := newEnv(t, 60, cfg)
	peers := env.ring.AlivePeers()
	env.sim.Run(10 * time.Second)

	victim := peers[10]
	env.ring.Kill(victim.Addr)
	// Give stabilization several rounds to route around the corpse.
	env.sim.Run(env.sim.Now() + 30*time.Second)

	// The victim's predecessor must now point past it.
	predNode := env.ring.Node(peers[9].Addr)
	succs := predNode.Successors()
	if len(succs) == 0 {
		t.Fatal("predecessor lost all successors")
	}
	if succs[0].ID == victim.ID {
		t.Errorf("predecessor still lists dead node as first successor")
	}
	if succs[0] != peers[11] {
		t.Errorf("succ[0] = %v, want %v", succs[0], peers[11])
	}
	// And the victim's successor must have dropped it from preds.
	succNode := env.ring.Node(peers[11].Addr)
	for _, p := range succNode.Predecessors() {
		if p.ID == victim.ID {
			t.Errorf("successor still lists dead node as predecessor")
		}
	}
	// Lookups for the victim's keys must now resolve to its successor.
	done := false
	predNode.Lookup(victim.ID, func(owner Peer, _ LookupStats, err error) {
		done = true
		if err != nil {
			t.Errorf("post-death lookup failed: %v", err)
			return
		}
		if owner != peers[11] {
			t.Errorf("owner = %v, want %v", owner, peers[11])
		}
	})
	env.sim.Run(env.sim.Now() + time.Minute)
	if !done {
		t.Fatal("post-death lookup did not complete")
	}
}

func TestJoinIntegratesNewNode(t *testing.T) {
	cfg := DefaultConfig()
	env := newEnv(t, 40, cfg)
	env.sim.Run(5 * time.Second)

	// Rejoin creates a brand-new identity on slot 7.
	env.ring.Kill(7)
	env.sim.Run(env.sim.Now() + 10*time.Second)
	fresh := env.ring.Rejoin(7, nil)
	if fresh == nil {
		t.Fatal("rejoin returned nil")
	}
	env.sim.Run(env.sim.Now() + time.Minute)

	// The fresh node must own its own ID range now.
	querier := env.ring.Node(3)
	done := false
	querier.Lookup(fresh.Self.ID, func(owner Peer, _ LookupStats, err error) {
		done = true
		if err != nil {
			t.Errorf("lookup of fresh node failed: %v", err)
			return
		}
		if owner != fresh.Self {
			t.Errorf("owner = %v, want fresh node %v", owner, fresh.Self)
		}
	})
	env.sim.Run(env.sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup did not complete")
	}
	// Its successor's predecessor list must include it.
	succ := fresh.Successors()[0]
	found := false
	for _, p := range env.ring.Node(succ.Addr).Predecessors() {
		if p.ID == fresh.Self.ID {
			found = true
		}
	}
	if !found {
		t.Error("successor does not list the joined node as a predecessor")
	}
}

func TestGetTableRespectsFlags(t *testing.T) {
	env := newEnv(t, 10, DefaultConfig())
	node := env.ring.Node(0)
	rt := node.Table(false, false)
	if rt.Successors != nil || rt.Predecessors != nil {
		t.Error("flags not honored")
	}
	rt = node.Table(true, true)
	if len(rt.Successors) == 0 || len(rt.Predecessors) == 0 {
		t.Error("successor/predecessor lists missing")
	}
	if rt.Owner != node.Self {
		t.Errorf("owner = %v", rt.Owner)
	}
}

func TestSignedTables(t *testing.T) {
	sim := simnet.New(7)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, 10)
	scheme := xcrypto.SimScheme{}
	identFor := func(self Peer) *Identity {
		kp, _ := scheme.GenerateKey(sim.Rand())
		return &Identity{Scheme: scheme, Key: kp}
	}
	ring := BuildRing(net, DefaultConfig(), 10, identFor)
	node := ring.Node(0)
	rt := node.Table(true, false)
	if rt.Sig == nil {
		t.Fatal("table not signed")
	}
	if !rt.VerifySig(scheme, node.Identity().Key.Public) {
		t.Error("signature does not verify")
	}
	// Any manipulation of the successor list must break the signature —
	// this is the non-repudiation property §4.3 relies on.
	tampered := rt.Clone()
	tampered.Successors[0].ID++
	if tampered.VerifySig(scheme, node.Identity().Key.Public) {
		t.Error("tampered table still verifies")
	}
}

func TestInterceptorManipulatesResponses(t *testing.T) {
	env := newEnv(t, 30, DefaultConfig())
	peers := env.ring.AlivePeers()
	evil := env.ring.Node(peers[5].Addr)
	colluder := peers[20]
	evil.Intercept = func(_ simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if r, isFind := honest.(FindNextResp); isFind {
			r.Done = true
			r.Owner = colluder
			return r, true
		}
		return honest, ok
	}
	// A lookup passing through the evil node gets a biased result.
	done := false
	env.ring.Node(peers[4].Addr).LookupVia(evil.Self, id.ID(peers[5].ID).Add(12345), func(owner Peer, _ LookupStats, err error) {
		done = true
		if err != nil {
			t.Fatalf("lookup error: %v", err)
		}
		if owner != colluder {
			t.Errorf("owner = %v, want biased colluder %v", owner, colluder)
		}
	})
	env.sim.Run(env.sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup did not complete")
	}
}

func TestLookupDivergenceGuard(t *testing.T) {
	env := newEnv(t, 30, DefaultConfig())
	peers := env.ring.AlivePeers()
	evil := env.ring.Node(peers[5].Addr)
	// Return a "next hop" that moves backwards: the initiator must reject.
	evil.Intercept = func(_ simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if _, isFind := honest.(FindNextResp); isFind {
			return FindNextResp{Next: peers[4]}, true
		}
		return honest, ok
	}
	// Key owned by peers[7]: from evil (peers[5]), the only converging
	// hops lie in (peers[5], peers[7]); peers[4] is a backwards step.
	key := peers[7].ID
	done := false
	env.ring.Node(peers[25].Addr).LookupVia(evil.Self, key, func(_ Peer, _ LookupStats, err error) {
		done = true
		if err == nil {
			t.Error("lookup accepted a non-converging hop")
		}
	})
	env.sim.Run(env.sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup did not complete")
	}
}

func TestLookupTimeoutOnDeadHop(t *testing.T) {
	env := newEnv(t, 30, DefaultConfig())
	peers := env.ring.AlivePeers()
	env.ring.Kill(peers[5].Addr)
	done := false
	env.ring.Node(peers[10].Addr).LookupVia(peers[5], peers[6].ID, func(_ Peer, stats LookupStats, err error) {
		done = true
		if err != ErrLookupTimeout {
			t.Errorf("err = %v, want ErrLookupTimeout", err)
		}
		if stats.Timeouts != 1 {
			t.Errorf("timeouts = %d, want 1", stats.Timeouts)
		}
	})
	env.sim.Run(env.sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup did not complete")
	}
}

func TestFixFingersRepairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixFingersEvery = time.Second
	sim := simnet.New(3)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, 20)
	ring := BuildRing(net, cfg, 20, nil)
	node := ring.Node(0)
	want := node.Fingers()[0]
	node.SetFinger(0, NoPeer)
	sim.Run(sim.Now() + time.Minute)
	if got := node.Fingers()[0]; got != want {
		t.Errorf("finger 0 repaired to %v, want %v", got, want)
	}
}

// With DisableFingerUpdates set, as Octopus runs Chord so that its secured
// update (§4.5) is the only writer of fingers, the node never rewrites a
// finger itself: a cleared finger stays cleared until its owner sets it.
func TestDisableFingerUpdatesLeavesFingers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixFingersEvery = time.Second
	cfg.DisableFingerUpdates = true
	sim := simnet.New(3)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, 20)
	ring := BuildRing(net, cfg, 20, nil)
	node := ring.Node(0)
	want := node.Fingers()[0]
	node.SetFinger(0, NoPeer)
	sim.Run(sim.Now() + time.Minute)
	if got := node.Fingers()[0]; got.Valid() {
		t.Errorf("finger 0 rewritten to %v with finger updates disabled", got)
	}
	node.SetFinger(0, want)
	if got := node.Fingers()[0]; got != want {
		t.Errorf("finger 0 = %v after SetFinger, want %v", got, want)
	}
}

func TestOnNeighborTableFires(t *testing.T) {
	env := newEnv(t, 10, DefaultConfig())
	node := env.ring.Node(0)
	count := 0
	node.OnNeighborTable = func(src Peer, table RoutingTable) {
		count++
		if src != node.Successors()[0] && src != node.Predecessors()[0] {
			t.Errorf("table from unexpected source %v", src)
		}
	}
	env.sim.Run(env.sim.Now() + 10*time.Second)
	if count == 0 {
		t.Error("OnNeighborTable never fired")
	}
}

func TestInsertFront(t *testing.T) {
	a := Peer{ID: 1, Addr: 1}
	b := Peer{ID: 2, Addr: 2}
	c := Peer{ID: 3, Addr: 3}
	got := insertFront([]Peer{b, c}, a, 2)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("insertFront = %v", got)
	}
	// Duplicate moves to front without growing.
	got = insertFront([]Peer{a, b}, b, 3)
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("insertFront dup = %v", got)
	}
}

func TestMergeNeighborList(t *testing.T) {
	self := Peer{ID: 100, Addr: 0}
	target := Peer{ID: 1, Addr: 1}
	theirs := []Peer{{ID: 2, Addr: 2}, {ID: 100, Addr: 0}, {ID: 1, Addr: 1}, {ID: 3, Addr: 3}}
	got := mergeNeighborList(self, target, theirs, 3)
	if len(got) != 3 || got[0] != target || got[1].ID != 2 || got[2].ID != 3 {
		t.Errorf("mergeNeighborList = %v (self and duplicates must be dropped)", got)
	}
}

func TestSingletonRing(t *testing.T) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, 1)
	ring := BuildRing(net, DefaultConfig(), 1, nil)
	node := ring.Node(0)
	done := false
	node.Lookup(id.ID(42), func(owner Peer, _ LookupStats, err error) {
		done = true
		if err != nil || owner != node.Self {
			t.Errorf("singleton lookup = %v, %v", owner, err)
		}
	})
	sim.Run(time.Second)
	if !done {
		t.Fatal("lookup did not complete")
	}
}

func TestTableWireSizeAccounting(t *testing.T) {
	env := newEnv(t, 30, DefaultConfig())
	rt := env.ring.Node(0).Table(true, false)
	// Size is derived from the real encoding: it must match the bytes the
	// codec actually produces for the table, signed or not.
	unsigned := GetTableResp{Table: rt}.Size()
	rt.Sig = make([]byte, xcrypto.SigWireSize)
	for _, resp := range []GetTableResp{{Table: rt}, {Table: env.ring.Node(0).Table(true, false)}} {
		if enc, err := transport.Encode(resp); err != nil || len(enc) != resp.Size() {
			t.Errorf("GetTableResp Size() = %d, len(Encode) = %d (err %v)", resp.Size(), len(enc), err)
		}
	}
	// Signing grows the table by exactly the signature bytes.
	if got, want := (GetTableResp{Table: rt}).Size(), unsigned+xcrypto.SigWireSize; got != want {
		t.Errorf("signed Size() = %d, want unsigned+sig = %d", got, want)
	}
}

func BenchmarkLookupStaticRing(b *testing.B) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, 1000)
	ring := BuildRing(net, DefaultConfig(), 1000, nil)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := ring.Node(simnet.Address(rng.Intn(1000)))
		n.Lookup(id.ID(rng.Uint64()), func(Peer, LookupStats, error) {})
		sim.Run(sim.Now() + 5*time.Second)
	}
}
