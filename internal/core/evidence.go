package core

import (
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
)

// evidence is what the node keeps so that it, or the CA on its behalf, can
// later prove something: the signed tables behind pollution and finger
// reports (§4.3–4.5), and the receipts and witness statements of Appendix II.
// All of it arrives from peers, so all of it is bounded.
type evidence struct {
	n *Node

	proofQueue  []chord.RoutingTable
	tableBuffer []chord.RoutingTable
	// fingerProv records, by the installed finger's identifier, the signed
	// table that vouched for it during its secured update (§4.5). When the
	// CA later questions the finger — possibly after the slot has healed —
	// this provenance shifts the blame to the deceiver.
	fingerProv map[id.ID]chord.RoutingTable

	// receipts holds, per query, the next hop's signed receipt; statements
	// the witnesses' signed outcomes of a delivery this node had retried.
	receipts   *qidTable[Receipt]
	statements *qidTable[[]WitnessResp]
}

// recordProof keeps the most recent signed successor lists received during
// stabilization — the pollution proofs of §4.3 (Fig. 2(b)).
func (e *evidence) recordProof(_ chord.Peer, table chord.RoutingTable) {
	if table.Successors == nil {
		return // anti-clockwise tables carry predecessors; not proofs
	}
	e.proofQueue = append(e.proofQueue, table.Clone())
	if keep := e.n.cfg.ProofQueue; len(e.proofQueue) > keep {
		e.proofQueue = e.proofQueue[len(e.proofQueue)-keep:]
	}
}

// recordFingerProvenance stores a finger's vouching table. Entries are
// pruned by age, never by count pressure alone — evicting live provenance
// would leave an honest node unable to prove it was deceived.
func (e *evidence) recordFingerProvenance(finger id.ID, vouch chord.RoutingTable) {
	const maxAge = 10 * time.Minute
	if len(e.fingerProv) > 512 {
		cutoff := e.n.tr.Now() - maxAge
		for k, v := range e.fingerProv {
			if v.Timestamp < cutoff {
				delete(e.fingerProv, k)
			}
		}
	}
	e.fingerProv[finger] = vouch.Clone()
}

// bufferTable stores a received fingertable for later secret finger
// surveillance (§4.4).
func (e *evidence) bufferTable(t chord.RoutingTable) {
	if len(t.Fingers) == 0 {
		return
	}
	e.tableBuffer = append(e.tableBuffer, t.Clone())
	if keep := e.n.cfg.TableBuffer; len(e.tableBuffer) > keep {
		e.tableBuffer = e.tableBuffer[len(e.tableBuffer)-keep:]
	}
}

// bufferedTable draws one buffered fingertable, if any is held.
func (e *evidence) bufferedTable(rng *rand.Rand) (chord.RoutingTable, bool) {
	if len(e.tableBuffer) == 0 {
		return chord.RoutingTable{}, false
	}
	return e.tableBuffer[rng.Intn(len(e.tableBuffer))], true
}

// addReceipt keeps a receipt whose signature verifies unless the query has
// one: first valid wins. A forgery can then neither displace the real receipt
// nor take its place beforehand — either way the CA would find no valid
// receipt here and convict this node.
func (e *evidence) addReceipt(r Receipt) {
	if _, held := e.receipts.get(r.QID); !held && e.n.dir.VerifyReceipt(r) {
		e.receipts.put(r.QID, r)
	}
}

// hasReceipt reports whether the query's next hop acknowledged delivery.
func (e *evidence) hasReceipt(qid uint64) bool {
	_, ok := e.receipts.get(qid)
	return ok
}

// addStatement keeps a witness statement whose signature verifies, at most
// two per query — the number of witnesses a relay asks.
func (e *evidence) addStatement(st WitnessResp) {
	held, _ := e.statements.get(st.QID)
	switch {
	case len(held) >= 2 || !e.n.dir.VerifyStatement(st):
	case len(held) == 0:
		e.statements.put(st.QID, []WitnessResp{st})
	default:
		e.statements.set(st.QID, append(held, st))
	}
}

// answer serves the CA's evidence requests (§4.3 investigations and
// Appendix II receipt collection).
func (e *evidence) answer(m ProofReq) ProofResp {
	resp := ProofResp{Own: e.n.Chord.Table(true, false)}
	for _, p := range e.proofQueue {
		resp.Proofs = append(resp.Proofs, p.Clone())
	}
	if m.QID != 0 {
		if r, ok := e.receipts.get(m.QID); ok {
			resp.Receipts = append(resp.Receipts, r)
		}
		sts, _ := e.statements.get(m.QID)
		resp.Statements = append(resp.Statements, sts...)
	}
	if m.FingerClaim.Valid() {
		if prov, ok := e.fingerProv[m.FingerClaim.ID]; ok {
			resp.Provenance = prov.Clone()
			resp.HasProvenance = true
		}
	}
	return resp
}
