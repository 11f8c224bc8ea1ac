package torsk

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// newTorskNet builds a ring where every node runs the buddy server and
// returns clients for all nodes.
func newTorskNet(seed int64, n int) (*simnet.Simulator, *chord.Ring, []*Client) {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n)
	ring := chord.BuildRing(net, chord.DefaultConfig(), n, nil)
	clients := make([]*Client, n)
	for i, node := range ring.Nodes() {
		clients[i] = NewClient(node, DefaultConfig())
	}
	return sim, ring, clients
}

func TestTorskLookupCorrect(t *testing.T) {
	sim, ring, clients := newTorskNet(1, 150)
	rng := rand.New(rand.NewSource(2))
	const lookups = 30
	done := 0
	for i := 0; i < lookups; i++ {
		key := id.ID(rng.Uint64())
		want := ring.Owner(key)
		clients[rng.Intn(len(clients))].Lookup(key, func(owner chord.Peer, stats Stats, err error) {
			done++
			if err != nil {
				t.Errorf("torsk lookup failed: %v", err)
				return
			}
			if owner != want {
				t.Errorf("owner = %v, want %v", owner, want)
			}
			if stats.WalkHops != DefaultConfig().WalkLength {
				t.Errorf("walk hops = %d, want %d", stats.WalkHops, DefaultConfig().WalkLength)
			}
			if !stats.Buddy.Valid() {
				t.Error("no buddy recorded")
			}
		})
	}
	sim.Run(sim.Now() + 10*time.Minute)
	if done != lookups {
		t.Fatalf("%d/%d lookups completed", done, lookups)
	}
}

func TestTorskInitiatorHiddenFromIntermediates(t *testing.T) {
	// The defining property of the buddy mechanism: intermediate nodes of
	// the Chord lookup are contacted by the buddy, never by the
	// initiator.
	sim, ring, clients := newTorskNet(3, 100)
	initiator := ring.Node(0).Self
	var buddy chord.Peer
	contactedByInitiator := map[simnet.Address]bool{}
	for _, node := range ring.Nodes() {
		node := node
		node.Intercept = func(from simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
			if _, isFind := req.(chord.FindNextReq); isFind && from == initiator.Addr {
				contactedByInitiator[node.Self.Addr] = true
			}
			return honest, ok
		}
	}
	done := false
	clients[0].Lookup(id.ID(123456789), func(_ chord.Peer, stats Stats, err error) {
		done = true
		buddy = stats.Buddy
		if err != nil {
			t.Errorf("lookup failed: %v", err)
		}
	})
	sim.Run(sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup did not complete")
	}
	_ = buddy
	if len(contactedByInitiator) > 0 {
		t.Errorf("initiator directly sent FindNextReq to %d intermediates", len(contactedByInitiator))
	}
}

func TestTorskBuddySeesKey(t *testing.T) {
	// Torsk's weakness (§2): the buddy learns the key (and the range
	// estimation attack works against the lookup it performs). Verify the
	// buddy indeed receives the cleartext key.
	sim, ring, clients := newTorskNet(5, 100)
	var keySeen id.ID
	for _, node := range ring.Nodes() {
		node := node
		orig := node.Extra
		node.Extra = func(from simnet.Address, req simnet.Message) (simnet.Message, bool) {
			if m, ok := req.(ProxyLookupReq); ok {
				keySeen = m.Key
			}
			return orig(from, req)
		}
	}
	const key = id.ID(555555)
	done := false
	clients[7].Lookup(key, func(_ chord.Peer, _ Stats, err error) {
		done = true
	})
	sim.Run(sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup did not complete")
	}
	if keySeen != key {
		t.Errorf("buddy saw key %v, want %v (Torsk reveals keys to buddies)", keySeen, key)
	}
}

func TestTorskDeadBuddyTimesOut(t *testing.T) {
	sim, ring, clients := newTorskNet(7, 50)
	// Kill every node except the initiator's immediate vicinity so the
	// walk lands on a corpse.
	initiatorAddr := ring.Node(0).Self.Addr
	for i := 1; i < 50; i++ {
		if simnet.Address(i) != initiatorAddr {
			ring.Kill(simnet.Address(i))
		}
	}
	done := false
	clients[0].Lookup(id.ID(99), func(_ chord.Peer, _ Stats, err error) {
		done = true
		if err == nil {
			t.Error("lookup against a dead network succeeded")
		}
	})
	sim.Run(sim.Now() + 10*time.Minute)
	if !done {
		t.Fatal("lookup never terminated")
	}
}

// TestProxyMessageSizes round-trips both 0x04xx messages through the wire
// codec with Size() equal to the encoding, and checks that the response
// (which carries the result) outweighs the request.
func TestProxyMessageSizes(t *testing.T) {
	req := ProxyLookupReq{Key: 42}
	resp := ProxyLookupResp{Key: 42, Owner: chord.Peer{ID: 7, Addr: 3}, Hops: 5, OK: true}
	for _, m := range []transport.Message{req, resp} {
		enc, err := transport.Encode(m)
		if err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
		if len(enc) != m.Size() {
			t.Errorf("%T: Size() = %d but len(Encode) = %d", m, m.Size(), len(enc))
		}
		if dec, err := transport.Decode(enc); err != nil || !reflect.DeepEqual(dec, m) {
			t.Errorf("%T round trip: got %#v, %v", m, dec, err)
		}
	}
	if resp.Size() <= req.Size() {
		t.Error("response should be larger than request (carries the result)")
	}
}
