package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// evidence is what the node keeps so that it, or the CA on its behalf, can
// later prove something: the signed tables behind pollution and finger
// reports (§4.3–4.5), and the receipts and witness statements of Appendix II.
// All of it arrives from peers, so all of it is bounded. Tables are kept as
// received: a chord.RoutingTable is immutable, so retaining one needs no copy.
type evidence struct {
	n *Node

	proofQueue  tableRing
	tableBuffer tableRing
	// fingerProv records, by the installed finger's identifier, the signed
	// table that vouched for it during its secured update (§4.5). When the
	// CA later questions the finger — possibly after the slot has healed —
	// this provenance shifts the blame to the deceiver.
	fingerProv map[id.ID]chord.RoutingTable

	// receipts holds, per query, the next hop's signed receipt; statements
	// the witnesses' signed outcomes of a delivery this node had retried.
	receipts   *receiptTable
	statements *qidTable[[]WitnessResp]
}

// heldReceipt is a receipt as evidence holds it: 16 pointer-free bytes, so
// the map of them is never scanned by the collector. The qid is the map key;
// the signature lives in the table's arena, after its uvarint length.
type heldReceipt struct {
	issuer id.ID
	addr   transport.Addr
	sig    uint32 // offset into receiptTable.sigs
}

// receiptTable is the receipts' qidTable and the arena their signatures live
// in, of any scheme's length. The arena is rewritten at its live size
// whenever the table rebuilds, so retired signatures go with their entries.
type receiptTable struct {
	*qidTable[heldReceipt]
	sigs []byte
}

func newReceiptTable(t *qidTable[heldReceipt]) *receiptTable {
	r := &receiptTable{qidTable: t}
	t.onRebuild = r.compact
	return r
}

// add holds a receipt for qid, replacing what qid held.
func (r *receiptTable) add(qid uint64, issuer chord.Peer, sig []byte) {
	r.put(qid, heldReceipt{issuer: issuer.ID, addr: issuer.Addr}) // a rebuild here moves the arena
	h := r.live[qid]
	h.sig = uint32(len(r.sigs))
	r.sigs = append(binary.AppendUvarint(r.sigs, uint64(len(sig))), sig...)
	r.live[qid] = h
}

// receipt rebuilds the wire receipt held for qid.
func (r *receiptTable) receipt(qid uint64) (Receipt, bool) {
	h, ok := r.get(qid)
	if !ok {
		return Receipt{}, false
	}
	n, w := binary.Uvarint(r.sigs[h.sig:])
	sig := r.sigs[int(h.sig)+w:][:n]
	return Receipt{QID: qid, Issuer: chord.Peer{ID: h.issuer, Addr: h.addr}, Sig: slices.Clone(sig)}, true
}

// compact copies the live signatures into an arena of their size.
func (r *receiptTable) compact() {
	var sigs []byte
	for qid, h := range r.live {
		n, w := binary.Uvarint(r.sigs[h.sig:])
		from := int(h.sig)
		h.sig = uint32(len(sigs))
		sigs = append(sigs, r.sigs[from:from+w+int(n)]...)
		r.live[qid] = h
	}
	r.sigs = slices.Clone(sigs)
}

// tableRing keeps the most recent tables in a fixed ring: once full, a push
// overwrites the oldest in place, so a long-running node's queues stop
// allocating.
type tableRing struct {
	buf  []chord.RoutingTable
	head int // position of the oldest table once the ring is full
}

// push adds t, evicting the oldest table when keep are held.
func (r *tableRing) push(t chord.RoutingTable, keep int) {
	switch {
	case len(r.buf) < keep:
		r.buf = append(r.buf, t)
	case keep > 0:
		r.buf[r.head] = t
		r.head = (r.head + 1) % len(r.buf)
	}
}

func (r *tableRing) len() int { return len(r.buf) }

// at returns the i-th oldest table.
func (r *tableRing) at(i int) chord.RoutingTable { return r.buf[(r.head+i)%len(r.buf)] }

// proofQueueLen is the number of most recent signed successor lists kept as
// pollution proofs (6, §5.1).
const proofQueueLen = 6

// tableBufferLen is the number of received fingertables buffered for secret
// finger surveillance.
const tableBufferLen = 16

// recordProof keeps the most recent signed successor lists received during
// stabilization — the pollution proofs of §4.3 (Fig. 2(b)).
func (e *evidence) recordProof(_ chord.Peer, table chord.RoutingTable) {
	if table.Successors == nil {
		return // anti-clockwise tables carry predecessors; not proofs
	}
	e.proofQueue.push(table, proofQueueLen)
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
	e.fingerProv[finger] = vouch
}

// bufferTable stores a received fingertable for later secret finger
// surveillance (§4.4).
func (e *evidence) bufferTable(t chord.RoutingTable) {
	if len(t.Fingers) == 0 {
		return
	}
	e.tableBuffer.push(t, tableBufferLen)
}

// bufferedTable draws one buffered fingertable, if any is held.
func (e *evidence) bufferedTable(rng *rand.Rand) (chord.RoutingTable, bool) {
	if e.tableBuffer.len() == 0 {
		return chord.RoutingTable{}, false
	}
	return e.tableBuffer.at(rng.Intn(e.tableBuffer.len())), true
}

// addReceipt keeps a receipt whose signature verifies unless the query has
// one: first valid wins. A forgery can then neither displace the real receipt
// nor take its place beforehand — either way the CA would find no valid
// receipt here and convict this node. It reports whether it stored r.
func (e *evidence) addReceipt(r Receipt) bool {
	_, held := e.receipts.get(r.QID)
	if held || !e.n.dir.VerifyReceipt(r) {
		return false
	}
	e.receipts.add(r.QID, r.Issuer, r.Sig)
	return true
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
	for i := 0; i < e.proofQueue.len(); i++ {
		resp.Proofs = append(resp.Proofs, e.proofQueue.at(i))
	}
	if m.QID != 0 {
		if r, ok := e.receipts.receipt(m.QID); ok {
			resp.Receipts = append(resp.Receipts, r)
		}
		sts, _ := e.statements.get(m.QID)
		resp.Statements = append(resp.Statements, sts...)
	}
	if m.FingerClaim.Valid() {
		if prov, ok := e.fingerProv[m.FingerClaim.ID]; ok {
			resp.Provenance = prov
			resp.HasProvenance = true
		}
	}
	return resp
}
