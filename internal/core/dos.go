package core

import (
	"encoding/binary"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Selective-DoS defense (Appendix II), adapted from the mix-network
// reputation scheme of Dingledine et al.: every relayed message earns a
// signed receipt from its next hop; a relay that misses a receipt recruits
// witnesses (its successors and predecessors) to retry the delivery and
// collect either a receipt or a signed failure statement. An initiator
// whose query silently vanishes reports the relay chain to the CA, which
// walks the receipt trail to locate the dropper.

// receiptBytes is the canonical byte string covered by a receipt signature.
func receiptBytes(qid uint64, issuer chord.Peer) []byte {
	buf := make([]byte, 24)
	binary.BigEndian.PutUint64(buf[0:8], qid)
	binary.BigEndian.PutUint64(buf[8:16], uint64(issuer.ID))
	binary.BigEndian.PutUint64(buf[16:24], uint64(issuer.Addr))
	return buf
}

// sendReceipt issues a signed delivery receipt to the previous hop.
func (n *Node) sendReceipt(to transport.Addr, qid uint64) {
	r := Receipt{QID: qid, Issuer: n.Chord.Self}
	if ident := n.Chord.Identity(); ident != nil {
		if sig, err := ident.Scheme.Sign(ident.Key, receiptBytes(qid, n.Chord.Self)); err == nil {
			r.Sig = sig
		}
	}
	n.tr.Send(n.Chord.Self.Addr, to, r)
}

// verifyReceipt checks a receipt signature against the directory.
func (n *Node) verifyReceipt(r Receipt) bool {
	if n.dir == nil {
		return true
	}
	key, ok := n.dir.Key(r.Issuer.ID)
	if !ok {
		return false
	}
	return n.dir.Scheme().Verify(key, receiptBytes(r.QID, r.Issuer), r.Sig)
}

// watchReceipt arms the witness protocol: if no receipt for qid arrives
// from the next hop within the RPC timeout, up to two witnesses retry the
// delivery independently.
func (n *Node) watchReceipt(qid uint64, next transport.Addr, payload *RelayForward) {
	// Evidence retention must outlive the CA's delayed investigation.
	retention := 20 * n.cfg.QueryTimeout
	n.tr.After(n.Chord.Self.Addr, n.cfg.Chord.RPCTimeout, func() {
		if _, ok := n.receipts[qid]; ok {
			// Delivered; free the bookkeeping after the case ages out.
			n.tr.After(n.Chord.Self.Addr, retention, func() { delete(n.receipts, qid) })
			return
		}
		witnesses := n.pickWitnesses(2, next)
		for _, w := range witnesses {
			n.tr.Send(n.Chord.Self.Addr, w.Addr,
				WitnessReq{QID: qid, Deliver: next, Payload: payload})
		}
		n.tr.After(n.Chord.Self.Addr, retention, func() {
			delete(n.receipts, qid)
			delete(n.statements, qid)
		})
	})
}

// pickWitnesses draws up to k witnesses from the node's neighbor lists (the
// "pre-defined set of witnesses, e.g. its successors and predecessors").
// The witnesses must be INDEPENDENT retriers: in a small ring the successor
// and predecessor lists overlap heavily, so entries are deduplicated by
// identifier, and the accused next hop — whose delivery is being
// re-attempted — is excluded outright (a dropper must never witness its own
// investigation).
func (n *Node) pickWitnesses(k int, accused transport.Addr) []chord.Peer {
	out := make([]chord.Peer, 0, k)
	seen := map[id.ID]bool{n.Chord.Self.ID: true}
	add := func(ps []chord.Peer) {
		for _, p := range ps {
			if len(out) >= k {
				return
			}
			if !p.Valid() || seen[p.ID] || p.Addr == accused {
				continue
			}
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	add(n.Chord.Successors())
	add(n.Chord.Predecessors())
	return out
}

// serveWitness retries a delivery on a neighbor's behalf and returns a
// signed statement about the outcome.
func (n *Node) serveWitness(from transport.Addr, m WitnessReq) {
	if m.Payload == nil {
		return
	}
	n.tr.Send(n.Chord.Self.Addr, m.Deliver, *m.Payload)
	n.tr.After(n.Chord.Self.Addr, n.cfg.Chord.RPCTimeout, func() {
		_, delivered := n.receipts[m.QID]
		resp := WitnessResp{QID: m.QID, Delivered: delivered, Witness: n.Chord.Self}
		if ident := n.Chord.Identity(); ident != nil {
			outcome := append(receiptBytes(m.QID, n.Chord.Self), boolByte(delivered))
			if sig, err := ident.Scheme.Sign(ident.Key, outcome); err == nil {
				resp.Statement = sig
			}
		}
		n.tr.Send(n.Chord.Self.Addr, from, resp)
		n.tr.After(n.Chord.Self.Addr, 20*n.cfg.QueryTimeout, func() { delete(n.receipts, m.QID) })
	})
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// reportDroppedQuery implements the initiator side of Appendix II: when a
// query reply misses its deadline and the path relays are still alive, the
// initiator hands the relay identities to the CA.
func (n *Node) reportDroppedQuery(qid uint64, head, pair RelayPair) {
	_, hasHead := n.receipts[qid]
	relays := []chord.Peer{head.First, head.Second, pair.First, pair.Second}
	alive := 0
	total := len(relays)
	for _, r := range relays {
		r := r
		n.tr.Call(n.Chord.Self.Addr, r.Addr, chord.PingReq{}, n.cfg.Chord.RPCTimeout,
			func(_ transport.Message, err error) {
				total--
				if err == nil {
					alive++
				}
				if n.timedOut[qid] {
					// The reply surfaced while we were pinging: late,
					// not lost. Every relay demonstrably did its job —
					// reporting would hand the CA a fully receipted
					// chain ending in an honest exit.
					return
				}
				if total == 0 && alive == len(relays) {
					// All four relays alive: the loss was malicious.
					n.report(ReportMsg{
						Kind:           ReportSelectiveDrop,
						Relays:         relays,
						QID:            qid,
						HasHeadReceipt: hasHead,
					})
				}
			})
	}
}

// handleProofReq answers the CA's evidence requests (§4.3 investigations
// and Appendix II receipt collection).
func (n *Node) handleProofReq(m ProofReq) ProofResp {
	resp := ProofResp{Own: n.Chord.Table(true, false)}
	for _, p := range n.proofQueue {
		resp.Proofs = append(resp.Proofs, p.Clone())
	}
	if m.QID != 0 {
		if r, ok := n.receipts[m.QID]; ok {
			resp.Receipts = append(resp.Receipts, r)
		}
		resp.Statements = append(resp.Statements, n.statements[m.QID]...)
	}
	if m.FingerClaim.Valid() {
		if prov, ok := n.fingerProv[m.FingerClaim.ID]; ok {
			resp.Provenance = prov.Clone()
			resp.HasProvenance = true
		}
	}
	return resp
}

// investigateDrop walks the receipt trail of a reported query (Appendix
// II): the first relay that neither holds its next hop's receipt nor
// witness statements proving a refused delivery is the dropper; a relay
// with failure statements shifts the blame to its next hop.
func (ca *CA) investigateDrop(m ReportMsg, done func(chord.Peer, ReportKind)) {
	if len(m.Relays) == 0 || m.QID == 0 || !m.HasHeadReceipt {
		done(chord.NoPeer, m.Kind)
		return
	}
	chain := m.Relays
	dbg := func(format string, args ...any) {
		if DebugDrop != nil {
			DebugDrop(format, args...)
		}
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(chain) {
			// Every hop can prove forwarding: the exit relay
			// received the query and let it die.
			dbg("qid=%d chain=%v: all receipts present, blaming exit", m.QID, chain)
			done(chain[len(chain)-1], m.Kind)
			return
		}
		relay := chain[i]
		ca.ping(relay, func(alive bool) {
			if !alive {
				done(chord.NoPeer, m.Kind) // churn, not an attack
				return
			}
			if i == len(chain)-1 {
				// The exit holds no onward receipt by design; if
				// everything before it checked out, it is the
				// dropper.
				dbg("qid=%d chain=%v: chain verified to exit, blaming exit %v", m.QID, chain, relay)
				done(relay, m.Kind)
				return
			}
			ca.tr.Call(ca.addr, relay.Addr, ProofReq{QID: m.QID}, ca.RPCTimeout,
				func(resp transport.Message, err error) {
					if err != nil {
						dbg("qid=%d: relay %v unresponsive", m.QID, relay)
						done(relay, m.Kind) // refused the investigation
						return
					}
					r, ok := resp.(ProofResp)
					if !ok {
						done(relay, m.Kind)
						return
					}
					next := chain[i+1]
					for _, rc := range r.Receipts {
						if rc.QID == m.QID && rc.Issuer.ID == next.ID && ca.verifyReceipt(rc) {
							step(i + 1) // delivered onward; move down the chain
							return
						}
					}
					for _, st := range r.Statements {
						if st.QID == m.QID && !st.Delivered && ca.verifyStatement(st) {
							// Witnesses confirm the next hop refused
							// delivery while alive.
							dbg("qid=%d: relay %v has failure statements, blaming next %v", m.QID, relay, next)
							done(next, m.Kind)
							return
						}
					}
					// No receipt and no witness evidence: this relay
					// never actually forwarded.
					dbg("qid=%d: relay %v (pos %d) has no receipt/statements, blaming it", m.QID, relay, i)
					done(relay, m.Kind)
				})
		})
	}
	step(0)
}

// DebugDrop, when set, traces selective-DoS investigations (tests only).
var DebugDrop func(format string, args ...any)

// verifyReceipt checks a receipt signature against the directory.
func (ca *CA) verifyReceipt(r Receipt) bool {
	key, ok := ca.dir.Key(r.Issuer.ID)
	if !ok {
		return false
	}
	return ca.dir.Scheme().Verify(key, receiptBytes(r.QID, r.Issuer), r.Sig)
}

// verifyStatement checks a witness failure statement's signature.
func (ca *CA) verifyStatement(st WitnessResp) bool {
	key, ok := ca.dir.Key(st.Witness.ID)
	if !ok {
		return false
	}
	outcome := append(receiptBytes(st.QID, st.Witness), boolByte(st.Delivered))
	return ca.dir.Scheme().Verify(key, outcome, st.Statement)
}
