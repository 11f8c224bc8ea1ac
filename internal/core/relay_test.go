package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// signedReceipt is the receipt issuer would send for qid.
func signedReceipt(issuer *Node, qid uint64) Receipt {
	self := issuer.Self()
	return Receipt{QID: qid, Issuer: self, Sig: issuer.relay.sign(receiptBuf(qid, self))}
}

// signedStatement is witness's statement that its retry for qid failed.
func signedStatement(witness *Node, qid uint64) WitnessResp {
	st := WitnessResp{QID: qid, Witness: witness.Self()}
	st.Statement = witness.relay.sign(statementBuf(st))
	return st
}

// TestForgedReceiptCannotFrameRelay: the receipt a relay holds from its next
// hop is what clears it before the CA ("no receipt and no witness evidence:
// this relay never actually forwarded"). Any peer can send the relay a
// Receipt for the same qid; neither a forgery nor a second, validly signed
// receipt in somebody else's name may displace the real one, whichever
// arrives first.
func TestForgedReceiptCannotFrameRelay(t *testing.T) {
	nw := buildTestNet(t, 29, 12, nil)
	nw.Sim.Run(5 * time.Second)
	relay, next, attacker := nw.Node(2), nw.Node(3), nw.Node(7)

	forgeries := map[string]func(qid uint64) Receipt{
		"bad signature in the next hop's name": func(qid uint64) Receipt {
			return Receipt{QID: qid, Issuer: next.Self(), Sig: []byte("not a signature")}
		},
		"unsigned": func(qid uint64) Receipt { return Receipt{QID: qid, Issuer: next.Self()} },
		"unknown issuer": func(qid uint64) Receipt {
			return Receipt{QID: qid, Issuer: testPeer(4242), Sig: []byte("whatever")}
		},
	}
	qid := uint64(0xF00D)
	for name, forge := range forgeries {
		for _, forgedFirst := range []bool{false, true} {
			qid++
			real := signedReceipt(next, qid)
			send := []struct {
				from *Node
				r    Receipt
			}{{next, real}, {attacker, forge(qid)}}
			if forgedFirst {
				send[0], send[1] = send[1], send[0]
			}
			for _, s := range send {
				nw.Net.Send(s.from.Self().Addr, relay.Self().Addr, s.r)
				nw.Sim.Run(nw.Sim.Now() + time.Second)
			}
			got := relay.evidence.answer(ProofReq{QID: qid}).Receipts
			if len(got) != 1 || got[0].Issuer != next.Self() || !bytes.Equal(got[0].Sig, real.Sig) {
				t.Errorf("%s, forged first = %v: proof holds %+v, want the next hop's real receipt", name, forgedFirst, got)
			}
		}
	}

	// A second receipt that does verify — the attacker signing in its own
	// name — must not displace the one already held either.
	qid++
	real := signedReceipt(next, qid)
	nw.Net.Send(next.Self().Addr, relay.Self().Addr, real)
	nw.Sim.Run(nw.Sim.Now() + time.Second)
	nw.Net.Send(attacker.Self().Addr, relay.Self().Addr, signedReceipt(attacker, qid))
	nw.Sim.Run(nw.Sim.Now() + time.Second)
	if got := relay.evidence.answer(ProofReq{QID: qid}).Receipts; len(got) != 1 || got[0].Issuer != next.Self() {
		t.Errorf("a later valid receipt displaced the first: %+v", got)
	}
}

// TestGarbageWitnessRespNotStored: statements are kept only when their
// signature verifies, and at most two per query.
func TestGarbageWitnessRespNotStored(t *testing.T) {
	nw := buildTestNet(t, 31, 12, nil)
	nw.Sim.Run(5 * time.Second)
	relay := nw.Node(2)
	deliver := func(from *Node, st WitnessResp) {
		nw.Net.Send(from.Self().Addr, relay.Self().Addr, st)
		nw.Sim.Run(nw.Sim.Now() + time.Second)
	}

	deliver(nw.Node(7), WitnessResp{QID: 999, Witness: nw.Node(5).Self(), Statement: []byte("junk")})
	deliver(nw.Node(7), WitnessResp{QID: 998, Witness: testPeer(4242), Statement: []byte("junk")})
	forged := signedStatement(nw.Node(5), 997)
	forged.Delivered = true // flips the signed outcome
	deliver(nw.Node(7), forged)
	if got := relay.evidence.statements.len(); got != 0 {
		t.Fatalf("%d unverifiable statements were stored", got)
	}

	for _, w := range []transport.Addr{4, 5, 6} {
		deliver(nw.Node(w), signedStatement(nw.Node(w), 996))
	}
	if got := relay.evidence.answer(ProofReq{QID: 996}).Statements; len(got) != 2 {
		t.Errorf("%d statements kept for one query, want the two a relay asks for", len(got))
	}
}

// perQueryEntries sums everything n holds for individual queries.
func perQueryEntries(n *Node) int {
	return n.relay.routes.len() + n.relay.watches.len() + n.evidence.receipts.len() +
		n.evidence.statements.len() + n.paths.timedOut.len() + len(n.paths.pending)
}

// TestPerQueryStateDrains: whatever a node holds for a query — its own or a
// stranger's — is gone once the evidence retention has passed. Before the
// tables, the initiator never freed the head receipt of any query it sent,
// and witness statements were freed only by the node that had recruited the
// witnesses: this scenario left 6 432 entries ring-wide, all of them receipts.
func TestPerQueryStateDrains(t *testing.T) {
	nw := buildTestNet(t, 37, 60, func(cfg *Config) { cfg.DoSDefense = true })
	// A dropper on some paths makes receipts go missing, so witnesses are
	// recruited and statements collected.
	dropForwards(nw.Node(17))
	nw.Sim.Run(60 * time.Second)
	lookups := 0
	for i := 0; i < 10; i++ {
		node := nw.Node(transport.Addr(i * 5))
		nw.Net.After(node.Self().Addr, 0, func() {
			node.AnonLookup(id.ID(uint64(i+1)<<58), func(chord.Peer, LookupStats, error) { lookups++ })
		})
	}
	nw.Sim.Run(nw.Sim.Now() + 30*time.Second)
	if lookups != 10 {
		t.Fatalf("%d of 10 lookups finished", lookups)
	}
	held := 0
	for _, n := range nw.Nodes {
		held += perQueryEntries(n)
		// Stop every Octopus timer (walks, surveillance, finger updates);
		// the Chord layer keeps running.
		for _, stop := range n.stops {
			stop()
		}
		n.stops = nil
	}
	if held == 0 {
		t.Fatal("the scenario produced no per-query state to drain")
	}
	cfg := nw.Node(0).cfg
	retention := cfg.Chord.RPCTimeout + 20*cfg.QueryTimeout
	// In-flight walks, probes and witness rounds finish first; then the last
	// entry they put ages out.
	nw.Sim.Run(nw.Sim.Now() + time.Minute + retention)
	for _, n := range nw.Nodes {
		if got := perQueryEntries(n); got != 0 {
			t.Errorf("node %d still holds %d per-query entries (routes %d, watches %d, receipts %d, statements %d, tombstones %d, pending %d)",
				n.Self().Addr, got, n.relay.routes.len(), n.relay.watches.len(), n.evidence.receipts.len(),
				n.evidence.statements.len(), n.paths.timedOut.len(), len(n.paths.pending))
		}
	}
}

// TestPerQueryTablesBounded floods one node with four times a table's worth
// of distinct query ids — forwards, valid receipts, valid statements — and
// requires every table to stay within its bound, oldest put gone first, with
// the evictions counted. The bound is lowered from qidTableMax so the flood
// stays small; the mechanism is the same.
func TestPerQueryTablesBounded(t *testing.T) {
	nw := buildTestNet(t, 41, 12, nil)
	nw.Sim.Run(5 * time.Second)
	victim, peer := nw.Node(2), nw.Node(6)
	const bound = 200
	victim.relay.routes.max = bound
	victim.evidence.receipts.max = bound
	victim.evidence.statements.max = bound

	for q := uint64(1); q <= 4*bound; q++ {
		for _, m := range []transport.Message{
			RelayForward{QID: q, Depth: 1}, signedReceipt(peer, q), signedStatement(peer, q),
		} {
			nw.Net.Send(peer.Self().Addr, victim.Self().Addr, m)
		}
	}
	nw.Sim.Run(nw.Sim.Now() + 2*time.Second)

	// The victim also relays the ring's own walks meanwhile, so a table may
	// hold less than the bound (a consumed route still counts against it
	// until its time is up) and evict more than the flood alone would.
	for name, got := range map[string]int{
		"routes":     victim.relay.routes.len(),
		"receipts":   victim.evidence.receipts.len(),
		"statements": victim.evidence.statements.len(),
	} {
		if got > bound || got < bound/2 {
			t.Errorf("%s holds %d entries after the flood, want at most the bound %d and most of it", name, got, bound)
		}
	}
	if _, ok := victim.evidence.receipts.get(4 * bound); !ok {
		t.Error("the newest receipt was evicted instead of the oldest")
	}
	if _, ok := victim.evidence.receipts.get(1); ok {
		t.Error("the oldest receipt survived a full table")
	}
	if got := victim.Stats().RelayStateEvictions.Load(); got < 3*3*bound {
		t.Errorf("octopus_relay_state_evictions_total = %d, want at least %d", got, 3*3*bound)
	}
}

// TestReceiptWatchEndsAtReceipt: a relay's receipt watch ends when the next
// hop's receipt is stored, leaving no handle and no queued timeout behind; a
// withheld receipt still recruits two witnesses at the RPC timeout; and a
// receipt that evidence refuses — forged, or one more for a qid already held —
// disarms nothing, so no peer can switch the witness protocol off.
func TestReceiptWatchEndsAtReceipt(t *testing.T) {
	nw := buildTestNet(t, 43, 12, nil)
	nw.Sim.Run(5 * time.Second)
	relay, next, dropper := nw.Node(2), nw.Node(3), nw.Node(4)
	prev := nw.Node(1).Self().Addr
	dropForwards(dropper)
	witnessReqs := map[uint64]int{}
	for _, n := range nw.Nodes {
		deliver := n.Chord.Extra
		n.Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
			if w, ok := req.(WitnessReq); ok {
				witnessReqs[w.QID]++
			}
			return deliver(from, req)
		}
	}
	// queued runs f at the simulator's current instant and returns how many
	// events it left queued.
	queued := func(f func()) int {
		before := nw.Sim.Pending()
		f()
		return nw.Sim.Pending() - before
	}
	forward := func(qid uint64, to *Node) int {
		return queued(func() {
			relay.relay.forward(prev, RelayForward{QID: qid, Next: to.Self().Addr, Inner: &RelayForward{QID: qid, Depth: 1}, Depth: 2})
		})
	}
	receive := func(from *Node, r Receipt) int {
		return queued(func() { relay.handleExtra(from.Self().Addr, r) })
	}
	armed := func(qid uint64) bool {
		_, ok := relay.relay.watches.get(qid)
		return ok
	}
	const delivered, withheld, forged, repeated = 0xFEED0001, 0xFEED0002, 0xFEED0003, 0xFEED0004

	// The receipt to the previous hop, the inner layer, and the watch.
	if got := forward(delivered, next); got != 3 {
		t.Fatalf("a forward queued %d events, want 3", got)
	}
	if got := receive(next, signedReceipt(next, delivered)); got != -1 || armed(delivered) {
		t.Errorf("the next hop's receipt changed the queue by %d events (armed after: %v), want its watch gone", got, armed(delivered))
	}

	forward(withheld, dropper)
	forward(forged, dropper)
	bad := Receipt{QID: forged, Issuer: dropper.Self(), Sig: []byte("not a signature")}
	if got := receive(nw.Node(7), bad); got != 0 || !armed(forged) {
		t.Errorf("a forged receipt changed the queue by %d events (armed after: %v), want the watch kept", got, armed(forged))
	}

	// A receipt already held for the qid (a colliding earlier forward's)
	// refuses the next one; its watch stays, and its firing finds the receipt.
	receive(next, signedReceipt(next, repeated))
	forward(repeated, next)
	if got := receive(next, signedReceipt(next, repeated)); got != 0 || !armed(repeated) {
		t.Errorf("a repeated receipt changed the queue by %d events (armed after: %v), want the watch kept", got, armed(repeated))
	}

	nw.Sim.Run(nw.Sim.Now() + relay.cfg.Chord.RPCTimeout + time.Second)
	for qid, want := range map[uint64]int{delivered: 0, withheld: 2, forged: 2, repeated: 0} {
		if got := witnessReqs[qid]; got != want {
			t.Errorf("qid %#x: %d WitnessReqs sent, want %d", qid, got, want)
		}
		if armed(qid) {
			t.Errorf("qid %#x: a watch is still held after the RPC timeout", qid)
		}
	}
}
