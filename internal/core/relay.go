package core

import (
	"strconv"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// backRoute is per-relay reverse-path state for one query.
type backRoute struct {
	prev  transport.Addr
	delay time.Duration
}

// relay is the node as a hop on other nodes' anonymous paths: it forwards
// layers inward or performs the exit query, carries replies back along the
// route it remembered, and runs the relay half of the selective-DoS defense
// (Appendix II, after the mix-network reputation scheme of Dingledine et
// al.): every relayed message earns a signed receipt from its next hop, and a
// relay that misses one recruits witnesses to retry the delivery and collect
// a receipt or a signed failure statement.
type relay struct {
	n      *Node
	routes *qidTable[backRoute] // per forwarded query, where its reply goes back to
	// watches holds, per inward forward, its armed receipt watch until the
	// receipt is stored or the watch fires.
	watches *qidTable[watch]
}

// watch is an armed receipt watch and the previous hop whose forward armed
// it.
type watch struct {
	timer transport.Timer
	from  transport.Addr
}

// forward handles one RelayForward: issue a signed delivery receipt to the
// previous hop, record the reverse path, honor the layer's artificial delay,
// then forward inward or perform the exit query.
func (r *relay) forward(from transport.Addr, m RelayForward) {
	n, self := r.n, r.n.Chord.Self
	n.stats.RelayedForwards.Add(1)
	n.tr.Send(self.Addr, from, Receipt{QID: m.QID, Issuer: self, Sig: r.sign(receiptBuf(m.QID, self))})
	r.routes.put(m.QID, backRoute{prev: from, delay: m.Delay})

	t0 := n.tr.Now()
	r.jittered(m.Delay, func() {
		switch {
		case m.Exit != nil:
			// The innermost layer: query the target and route the answer
			// (nil when the query failed) backwards.
			r.recordHopSpan("relay.exit", m.QID, t0, from, m.Exit.Target)
			n.tr.Call(self.Addr, m.Exit.Target, m.Exit.Req, n.cfg.Chord.RPCTimeout,
				func(resp transport.Message, err error) {
					r.reply(RelayReply{QID: m.QID, Resp: resp, Failed: err != nil, Depth: 1})
				})
		case m.Local != nil:
			// Addressed to this node itself (only phase-2 walk seeds);
			// the handler answers through reply with the same QID.
			if seed, ok := m.Local.(WalkSeedReq); ok {
				n.runPhaseTwo(m.QID, seed)
			}
		case m.Inner != nil && m.Next != transport.NoAddr:
			r.recordHopSpan("relay.forward", m.QID, t0, from, m.Next)
			n.tr.Send(self.Addr, m.Next, *m.Inner)
			r.watchReceipt(m.QID, from, m.Next, m.Inner)
		}
	})
}

// jittered runs f after a uniformly random pause shorter than limit — the
// artificial delay of §4.7 — or at once when limit is zero.
func (r *relay) jittered(limit time.Duration, f func()) {
	if limit <= 0 {
		f()
		return
	}
	r.n.tr.After(r.n.Chord.Self.Addr, time.Duration(r.n.tr.Rand().Int63n(int64(limit))), f)
}

// recordHopSpan records this node's part of an anonymous query as a tracing
// span, from arrival to the forward (or exit query), which makes the
// artificial relay delay visible per hop. The tracer scrubs from/next/target
// and the query id in anonymous mode — the qid's low bits are the initiator's
// address and must never leave the process unredacted.
func (r *relay) recordHopSpan(name string, qid uint64, start time.Duration, from, to transport.Addr) {
	n := r.n
	if n.tracer == nil {
		return
	}
	// Both branches use a constant key from the redaction seam's
	// sensitive set, so anonleak can prove the value is scrubbed.
	toAttr := obs.A("next", strconv.Itoa(int(to)))
	if name == "relay.exit" {
		toAttr = obs.A("target", strconv.Itoa(int(to)))
	}
	n.tracer.Record(obs.Span{
		Trace: qid,
		Name:  name,
		Node:  strconv.Itoa(int(n.Chord.Self.Addr)),
		Start: start,
		End:   n.tr.Now(),
		Attrs: []obs.Attr{
			obs.A("from", strconv.Itoa(int(from))),
			toAttr,
		},
	})
}

// carry takes somebody else's reply one hop further back.
func (r *relay) carry(m RelayReply) {
	r.n.stats.RelayedReplies.Add(1)
	m.Depth++
	r.reply(m)
}

// reply sends an answer one hop back toward the initiator, after the same
// artificial delay as the forward leg. It consumes the route: one answer per
// query.
func (r *relay) reply(m RelayReply) {
	if route, ok := r.routes.take(m.QID); ok {
		r.jittered(route.delay, func() { r.n.tr.Send(r.n.Chord.Self.Addr, route.prev, m) })
	}
}

// sign signs msg with the node's identity and releases it; an unsigned node
// (or a failed signature) yields nil, which no verifier accepts.
func (r *relay) sign(msg *transport.Buf) []byte {
	defer msg.Release()
	if ident := r.n.Chord.Identity(); ident != nil {
		sig, _ := ident.Scheme.Sign(ident.Key, msg.B)
		return sig
	}
	return nil
}

// watchReceipt arms the witness protocol for a forward from prev: if no
// receipt for qid arrives from the next hop within the RPC timeout, up to two
// witnesses retry the delivery independently.
func (r *relay) watchReceipt(qid uint64, prev, next transport.Addr, payload *RelayForward) {
	n := r.n
	r.watches.put(qid, watch{from: prev, timer: n.tr.After(n.Chord.Self.Addr, n.cfg.Chord.RPCTimeout, func() {
		if n.evidence.hasReceipt(qid) {
			return // delivered, though the watch was not disarmed
		}
		for _, w := range r.pickWitnesses(2, next) {
			n.tr.Send(n.Chord.Self.Addr, w.Addr,
				WitnessReq{QID: qid, Deliver: next, Payload: payload})
		}
	})})
}

// disarm ends qid's receipt watch; evidence has just stored its receipt.
// Only a fresh store disarms: a forged or repeated receipt leaves the watch
// to its fire-time check.
func (r *relay) disarm(qid uint64) {
	if w, ok := r.watches.take(qid); ok {
		w.timer.Cancel()
	}
}

// pickWitnesses draws up to k witnesses from the node's neighbor lists (the
// "pre-defined set of witnesses, e.g. its successors and predecessors"). They
// must be INDEPENDENT retriers: in a small ring the two lists overlap heavily,
// so entries are deduplicated by identifier, and the accused next hop is
// excluded outright (a dropper must never witness its own investigation).
func (r *relay) pickWitnesses(k int, accused transport.Addr) []chord.Peer {
	out := make([]chord.Peer, 0, k)
	seen := map[id.ID]bool{r.n.Chord.Self.ID: true}
	for _, p := range append(r.n.Chord.Successors(), r.n.Chord.Predecessors()...) {
		if len(out) < k && p.Valid() && !seen[p.ID] && p.Addr != accused {
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	return out
}

// serveWitness retries a delivery on a neighbor's behalf and returns a
// signed statement about the outcome.
func (r *relay) serveWitness(from transport.Addr, m WitnessReq) {
	n := r.n
	if m.Payload == nil {
		return
	}
	n.tr.Send(n.Chord.Self.Addr, m.Deliver, *m.Payload)
	n.tr.After(n.Chord.Self.Addr, n.cfg.Chord.RPCTimeout, func() {
		resp := WitnessResp{QID: m.QID, Delivered: n.evidence.hasReceipt(m.QID), Witness: n.Chord.Self}
		resp.Statement = r.sign(statementBuf(resp))
		n.tr.Send(n.Chord.Self.Addr, from, resp)
	})
}
