package chord

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// listShapes names the peer-list shapes the wire format tells apart.
func listShapes() map[string][]Peer {
	return map[string][]Peer{"nil": nil, "empty": {}, "one": goldenPeers(0x5555, 1)}
}

// TestCloneEncodesIdentically pins Clone as a faithful copy: for nil, empty
// and filled values of every slice field, the clone encodes byte for byte like
// its original (CodeTable writes presence flags, so nil and empty differ on
// the wire) and shares no storage with it.
func TestCloneEncodesIdentically(t *testing.T) {
	for fn, fingers := range listShapes() {
		for sn, succs := range listShapes() {
			for pn, preds := range listShapes() {
				for en, exps := range map[string][]uint8{"nil": nil, "empty": {}, "one": {63}} {
					for gn, sig := range map[string][]byte{"nil": nil, "empty": {}, "set": bytes.Repeat([]byte{7}, 40)} {
						orig := RoutingTable{
							Owner: Peer{ID: 9, Addr: 9}, Timestamp: time.Second,
							Fingers: fingers, FingerExps: exps, Successors: succs, Predecessors: preds, Sig: sig,
						}
						name := fmt.Sprintf("fingers=%s exps=%s succs=%s preds=%s sig=%s", fn, en, sn, pn, gn)
						want, err := transport.Encode(GetTableResp{Table: orig})
						if err != nil {
							t.Fatal(err)
						}
						clone := orig.Clone()
						got, err := transport.Encode(GetTableResp{Table: clone})
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("%s: clone encodes to %d bytes, original to %d", name, len(got), len(want))
						}
						if len(clone.Fingers) > 0 {
							clone.Fingers[0].ID++
							clone.FingerExps = append(clone.FingerExps, 1)
							if reflect.DeepEqual(clone.Fingers, orig.Fingers) {
								t.Errorf("%s: clone shares its fingers with the original", name)
							}
						}
					}
				}
			}
		}
	}
}

// TestTableSizeMatchesEncoding checks the counting shortcut of CodePeers:
// Size() adds a peer list's length in one step, and must still equal the
// encoder's output for every list length, across the one- and two-byte range
// of the count.
func TestTableSizeMatchesEncoding(t *testing.T) {
	lists := [][]Peer{nil, {}}
	for _, n := range []int{1, 255, 256, 1000} {
		lists = append(lists, goldenPeers(uint64(n), n))
	}
	for _, fingers := range lists {
		for _, succs := range lists {
			for _, preds := range lists {
				rt := RoutingTable{Owner: Peer{ID: 1, Addr: 2}, Fingers: fingers, Successors: succs, Predecessors: preds}
				if fingers != nil {
					rt.FingerExps = make([]uint8, len(fingers))
				}
				for _, m := range []transport.Message{GetTableResp{Table: rt}, StabilizeResp{Table: rt, Back: NoPeer}} {
					enc, err := transport.Encode(m)
					if err != nil {
						t.Fatal(err)
					}
					if m.Size() != len(enc) {
						t.Errorf("%T with %d/%d/%d peers: Size() = %d, len(Encode()) = %d",
							m, len(fingers), len(succs), len(preds), m.Size(), len(enc))
					}
				}
			}
		}
	}
}

// signedNode returns a started-less node with an identity and full lists.
func signedNode(t *testing.T) *Node {
	t.Helper()
	net := simnet.NewNetwork(simnet.New(3), simnet.ConstantLatency{D: time.Millisecond}, 2)
	scheme := xcrypto.SimScheme{}
	kp, err := scheme.GenerateKey(bytes.NewReader([]byte("table-test-key-0")))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	n := NewNode(net, cfg, Peer{ID: 0xabcdef, Addr: 0}, &Identity{Scheme: scheme, Key: kp})
	for i, p := range goldenPeers(0x100, cfg.Fingers) {
		if i%3 == 1 { // some slots invalid, as a live table has
			p = NoPeer
		}
		n.SetFinger(i, p)
	}
	n.SetSuccessors(goldenPeers(0x200, cfg.Successors))
	n.SetPredecessors(goldenPeers(0x300, cfg.Successors))
	return n
}

// TestTableOwnsItsStorage is the immutability rule from the serving side: a
// table shares nothing with the live lists of the node that built it (only
// its snapshot, see TestTableSharesUnchangedState), its three lists cannot
// grow into each other although they share one array, and nil ("not
// requested") stays distinct from empty.
func TestTableOwnsItsStorage(t *testing.T) {
	n := signedNode(t)
	rt := n.Table(true, true)
	want := rt.Clone()
	if len(rt.Fingers) == 0 || len(rt.Fingers) == n.Cfg.Fingers || len(rt.FingerExps) != len(rt.Fingers) {
		t.Fatalf("table has %d fingers and %d exponents of %d slots", len(rt.Fingers), len(rt.FingerExps), n.Cfg.Fingers)
	}

	// In-place writes to the node's state, as dropNeighbor and SetFinger do.
	for i := range n.fingers {
		n.fingers[i] = Peer{ID: 1, Addr: 1}
	}
	for i := range n.succs {
		n.succs[i], n.preds[i] = Peer{ID: 2, Addr: 2}, Peer{ID: 3, Addr: 3}
	}
	// Appends to one list of the table must reallocate, not spill into the next.
	_ = append(rt.Fingers, Peer{ID: 4, Addr: 4})
	_ = append(rt.Successors, Peer{ID: 5, Addr: 5})
	if !reflect.DeepEqual(rt, want) {
		t.Errorf("table changed after its node did:\n got %+v\nwant %+v", rt, want)
	}
	if !rt.VerifySig(n.ident.Scheme, n.ident.Key.Public) {
		t.Error("table no longer verifies")
	}

	if rt := n.Table(false, false); rt.Successors != nil || rt.Predecessors != nil {
		t.Error("lists that were not requested must be nil")
	}
	n.SetSuccessors([]Peer{})
	n.SetPredecessors(nil)
	rt = n.Table(true, true)
	if rt.Successors == nil || len(rt.Successors) != 0 || rt.Predecessors != nil {
		t.Errorf("empty successors / nil predecessors came out as %#v / %#v", rt.Successors, rt.Predecessors)
	}
	for i := range n.fingers {
		n.fingers[i] = NoPeer
	}
	if rt := n.Table(false, false); rt.Fingers == nil || rt.FingerExps == nil || len(rt.Fingers) != 0 {
		t.Errorf("a finger-less table must carry empty, non-nil fingers and exponents: %#v / %#v", rt.Fingers, rt.FingerExps)
	}
}

// TestTableSharesUnchangedState pins the snapshot: tables issued while the
// routing state holds still share one array and differ only in Timestamp and
// Sig; every kind of write to the live lists shows in the next table and in
// no earlier one; and appends to a view or a table cannot reach the snapshot.
func TestTableSharesUnchangedState(t *testing.T) {
	n := signedNode(t)
	sim := n.tr.(*simnet.Network).Sim()
	issue := func() RoutingTable {
		sim.Run(n.tr.Now() + time.Second)
		return n.Table(true, true)
	}
	a, b := issue(), issue()
	if &a.Fingers[0] != &b.Fingers[0] {
		t.Error("two tables of unchanged state do not share their fingers")
	}
	if a.Timestamp == b.Timestamp || bytes.Equal(a.Sig, b.Sig) {
		t.Error("tables of unchanged state share a timestamp or a signature")
	}
	b.Timestamp, b.Sig = a.Timestamp, a.Sig
	if !reflect.DeepEqual(a, b) {
		t.Errorf("tables of unchanged state differ beyond Timestamp and Sig:\n%+v\n%+v", a, b)
	}

	issued := []RoutingTable{a}
	wants := []RoutingTable{a.Clone()}
	for _, change := range []struct {
		name  string
		apply func()
		shows func(RoutingTable) bool
	}{
		{"in-place finger write", func() { n.fingers[0] = NoPeer }, func(rt RoutingTable) bool {
			return len(rt.Fingers) == len(a.Fingers)-1 && rt.Fingers[0] == a.Fingers[1]
		}},
		{"SetFinger", func() { n.SetFinger(1, Peer{ID: 7, Addr: 7}) }, func(rt RoutingTable) bool {
			return rt.Fingers[0] == Peer{ID: 7, Addr: 7} && rt.FingerExps[0] == n.fingerExp(1)
		}},
		{"SetSuccessors of the same length", func() { n.SetSuccessors(goldenPeers(0x400, len(n.succs))) }, func(rt RoutingTable) bool {
			return reflect.DeepEqual(rt.Successors, goldenPeers(0x400, len(a.Successors)))
		}},
		{"SetPredecessors(nil)", func() { n.SetPredecessors(nil) }, func(rt RoutingTable) bool {
			return rt.Predecessors == nil
		}},
	} {
		change.apply()
		rt := issue()
		if !change.shows(rt) {
			t.Errorf("%s: the next table does not show it: %+v", change.name, rt)
		}
		issued, wants = append(issued, rt), append(wants, rt.Clone())
		for i, old := range issued {
			if !reflect.DeepEqual(old, wants[i]) {
				t.Errorf("%s: table %d changed after it was issued", change.name, i)
			}
			if !old.VerifySig(n.ident.Scheme, n.ident.Key.Public) {
				t.Errorf("%s: table %d no longer verifies", change.name, i)
			}
		}
	}

	n.SetPredecessors(goldenPeers(0x300, len(n.succs)))
	before := n.Table(true, true)
	want := before.Clone()
	_ = append(n.knownPeers(), Peer{ID: 8, Addr: 8})
	_ = append(n.validFingers(), Peer{ID: 8, Addr: 8})
	_ = append(before.Fingers, Peer{ID: 9, Addr: 9})
	_ = append(before.Successors, Peer{ID: 9, Addr: 9})
	if after := n.Table(true, true); !reflect.DeepEqual(after, want) || !reflect.DeepEqual(before, want) {
		t.Errorf("appends to a view or a table reached the snapshot:\n got %+v\nwant %+v", after, want)
	}
}
