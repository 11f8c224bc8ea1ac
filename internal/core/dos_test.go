package core

import (
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// TestPickWitnessesSmallRing is the regression for the witness-selection
// bug: in a 4-node ring every node's successor and predecessor lists hold
// the SAME three peers, so the old selection (successors then predecessors,
// no dedup, no exclusion) could return the same peer twice — or the accused
// dropper itself as its own "independent" witness.
func TestPickWitnessesSmallRing(t *testing.T) {
	nw := buildTestNet(t, 7, 4, nil)
	nw.Sim.Run(5 * time.Second)
	node := nw.Node(0)

	succs := node.Chord.Successors()
	preds := node.Chord.Predecessors()
	if len(succs) < 3 || len(preds) < 3 {
		t.Fatalf("4-node ring should list all 3 peers both ways (succs %d, preds %d)", len(succs), len(preds))
	}
	accused := succs[0]

	for _, k := range []int{1, 2, 10} {
		witnesses := node.relay.pickWitnesses(k, accused.Addr)
		if len(witnesses) > k {
			t.Errorf("k=%d: got %d witnesses", k, len(witnesses))
		}
		seen := map[id.ID]bool{}
		for _, w := range witnesses {
			if w.ID == accused.ID {
				t.Errorf("k=%d: the accused %v selected as its own witness", k, accused)
			}
			if w.ID == node.Self().ID {
				t.Errorf("k=%d: the node selected itself as witness", k)
			}
			if seen[w.ID] {
				t.Errorf("k=%d: duplicate witness %v", k, w)
			}
			seen[w.ID] = true
		}
	}
	// Only 2 distinct candidates exist once the accused is excluded.
	if got := len(node.relay.pickWitnesses(10, accused.Addr)); got != 2 {
		t.Errorf("over-asking yielded %d witnesses, want the 2 distinct non-accused peers", got)
	}
}

// TestWitnessFailureStatementShiftsBlame covers the Appendix II failure
// branch end to end: relay Ci forwards to a dropper Di and gets no receipt
// (missing receipt), recruits witnesses that retry the delivery (witness
// retry), the witnesses observe the drop and return signed failure
// statements, and the CA's receipt-trail investigation blames Di — NOT the
// innocent Ci whose receipt is missing.
func TestWitnessFailureStatementShiftsBlame(t *testing.T) {
	nw := buildTestNet(t, 13, 60, func(cfg *Config) {
		cfg.DoSDefense = true
	})
	nw.Sim.Run(30 * time.Second)

	ci := nw.Node(3)
	dropper := nw.Node(25) // Di: the hop after Ci
	dropForwards(dropper)

	initiator := nw.Node(0)
	head := RelayPair{First: nw.Node(1).Self(), Second: nw.Node(2).Self()}
	pair := RelayPair{First: ci.Self(), Second: dropper.Self()}
	failed := false
	initiator.paths.anonQuery(head, pair, nw.Node(5).Self(), chord.GetTableReq{},
		func(_ simnet.Message, err error) { failed = err != nil })
	nw.Sim.Run(nw.Sim.Now() + 5*time.Minute)

	if !failed {
		t.Fatal("dropped query unexpectedly succeeded")
	}
	if !nw.CA.Revoked(dropper.Self().ID) {
		t.Fatalf("dropper Di never revoked; CA stats: %+v", nw.CA.Stats())
	}
	if nw.CA.Revoked(ci.Self().ID) {
		t.Fatal("innocent relay Ci was blamed despite its witness statements")
	}
	// The statements really were collected by Ci before aging out is not
	// observable after retention; but the investigation above could only
	// have shifted blame through them, since Ci holds no receipt from Di.
}

// TestLateReplyCancelsDropReport pins the initiator-side veto: a reply that
// arrives after the query's deadline — but while the dropped-query pings
// are still out — proves every relay did its job, so no selective-DoS
// report may be filed. Without the veto the CA walks a fully receipted
// chain and revokes the HONEST exit relay whose round trip was merely slow
// (the exit's own RPC timeout plus tail latency can exceed QueryTimeout).
func TestLateReplyCancelsDropReport(t *testing.T) {
	run := func(injectLateReply bool) uint64 {
		nw := buildTestNet(t, 23, 40, func(cfg *Config) {
			cfg.DoSDefense = true
			// Deadline below the exit's RPC timeout: an exit query to a
			// dead target answers Failed AFTER the initiator gives up.
			cfg.QueryTimeout = time.Second
		})
		nw.Sim.Run(10 * time.Second)
		initiator := nw.Node(0)
		head := RelayPair{First: nw.Node(1).Self(), Second: nw.Node(2).Self()}
		pair := RelayPair{First: nw.Node(3).Self(), Second: nw.Node(4).Self()}
		target := nw.Node(5)
		target.Stop() // the exit's query will time out

		start := nw.Sim.Now()
		initiator.paths.anonQuery(head, pair, target.Self(), chord.GetTableReq{},
			func(_ simnet.Message, err error) {
				if err == nil {
					t.Error("query against a dead target succeeded")
				}
			})
		qid := initiator.paths.qidSeq<<16 | uint64(initiator.Chord.Self.Addr)&0xffff
		if injectLateReply {
			// Let the deadline fire, then deliver the reply while the
			// report's relay pings are still in flight.
			nw.Sim.Run(start + initiator.cfg.QueryTimeout + time.Millisecond)
			nw.Net.Send(pair.First.Addr, initiator.Self().Addr,
				RelayReply{QID: qid, Failed: true, Depth: 4})
		}
		nw.Sim.Run(start + 5*time.Second)
		return initiator.Stats().ReportsSent.Load()
	}

	if got := run(false); got != 1 {
		t.Errorf("control run: %d reports sent, want 1 (timeout with all relays alive)", got)
	}
	if got := run(true); got != 0 {
		t.Errorf("late-reply run: %d reports sent, want 0 (the reply vetoes the report)", got)
	}
}

// TestServeWitnessSignsFailureStatement pins the witness's side of the
// protocol in isolation: asked to deliver to a dead address, the witness
// returns a Delivered=false statement whose signature verifies against the
// directory — the evidence the CA's investigation later relies on.
func TestServeWitnessSignsFailureStatement(t *testing.T) {
	nw := buildTestNet(t, 17, 12, nil)
	nw.Sim.Run(5 * time.Second)

	requester := nw.Node(0)
	witness := nw.Node(1)
	dead := nw.Node(5)
	dead.Stop()

	const qid = uint64(0xBEEF)
	payload := &RelayForward{QID: qid, Exit: &ExitAction{Target: dead.Self().Addr, Req: chord.PingReq{}}, Depth: 1}
	nw.Net.Send(requester.Self().Addr, witness.Self().Addr,
		WitnessReq{QID: qid, Deliver: dead.Self().Addr, Payload: payload})
	nw.Sim.Run(nw.Sim.Now() + 30*time.Second)

	sts, _ := requester.evidence.statements.get(qid)
	if len(sts) == 0 {
		t.Fatal("witness never returned a statement")
	}
	st := sts[0]
	if st.Delivered {
		t.Error("delivery to a dead address reported as delivered")
	}
	if st.Witness.ID != witness.Self().ID {
		t.Errorf("statement names witness %v, want %v", st.Witness, witness.Self())
	}
	if !nw.Dir.VerifyStatement(st) {
		t.Error("witness failure statement does not verify against the directory")
	}
	// A forged statement (flipped outcome) must NOT verify.
	forged := st
	forged.Delivered = true
	if nw.Dir.VerifyStatement(forged) {
		t.Error("statement with a flipped outcome verified")
	}
}

// TestWitnessStatementsServedToCA pins the evidence-request branch: a
// relay's collected statements for a query are returned by evidence.answer,
// and unrelated queries stay out.
func TestWitnessStatementsServedToCA(t *testing.T) {
	nw := buildTestNet(t, 19, 12, nil)
	nw.Sim.Run(5 * time.Second)

	relay := nw.Node(2)
	w := nw.Node(3).Self()
	st := WitnessResp{QID: 77, Delivered: false, Witness: w, Statement: []byte("sig")}
	relay.evidence.statements.put(77, []WitnessResp{st})
	relay.evidence.receipts.add(42, w, []byte("sig"))

	resp := relay.evidence.answer(ProofReq{QID: 77})
	if len(resp.Statements) != 1 || resp.Statements[0].QID != 77 {
		t.Fatalf("proof response missing the query's statements: %+v", resp.Statements)
	}
	if len(resp.Receipts) != 0 {
		t.Errorf("unrelated receipt leaked into the proof response: %+v", resp.Receipts)
	}
	resp = relay.evidence.answer(ProofReq{QID: 42})
	if len(resp.Receipts) != 1 || len(resp.Statements) != 0 {
		t.Errorf("qid 42 evidence wrong: receipts %+v statements %+v", resp.Receipts, resp.Statements)
	}
}
