package core

import (
	"errors"
	"slices"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/transport"
)

// ErrQueryTimeout is reported when an anonymous query's reply never returns.
var ErrQueryTimeout = errors.New("core: anonymous query timed out")

// ErrExitFailed is reported when the reply came back but the exit relay
// could not reach the queried node (dead target — the path itself worked).
var ErrExitFailed = errors.New("core: exit relay could not reach the queried node")

// ErrNoRelays is reported when no relay pair can be assembled.
var ErrNoRelays = errors.New("core: relay pool empty and no fallback available")

// pendingQuery is initiator-side state for one outstanding anonymous query.
// head is its first relay, or NoPeer when the node is on its own route. The
// head's receipt is read only by the dropped-query report, and the CA never
// asks the initiator for it, so a valid one is kept as the headReceipt bit
// and ends with the query; any other receipt for the qid is evidence's.
type pendingQuery struct {
	cb          func(transport.Message, error)
	timer       transport.Timer
	qid         uint64
	head        chord.Peer
	headReceipt bool
}

// paths is the node's role as initiator of anonymous paths: it allocates
// query ids, builds the layered RelayForward, matches replies to the queries
// it has outstanding, and reports the ones that vanish (Appendix II).
type paths struct {
	n *Node

	qidSeq  uint64
	walkSeq uint64
	// pending is a plain map, not a qidTable: its timer does work (the
	// timeout callback), so that timer frees the entry.
	pending map[uint64]*pendingQuery
	// timedOut tombstones the node's own queries whose deadline fired while
	// the reply could still be in flight; the value flips to true when the
	// reply then does arrive. A LATE reply — even a failed one — proves every
	// relay did its job, so it must cancel the pending selective-DoS report:
	// a slow exit round trip (the exit's own RPC timeout plus tail latency can
	// exceed QueryTimeout) would otherwise end with the CA walking a fully
	// receipted chain and blaming the honest exit for a query that was
	// answered, just slowly.
	timedOut *qidTable[bool]
}

// nextWalkID numbers the node's phase-2 walk seeds.
func (p *paths) nextWalkID() uint64 {
	p.walkSeq++
	return p.walkSeq
}

// deliver hands a reply to the query of this node's that it answers and
// reports whether there was one; a reply that is not ours is relayed traffic.
func (p *paths) deliver(m RelayReply) bool {
	if q, ok := p.pending[m.QID]; ok {
		delete(p.pending, m.QID)
		q.timer.Cancel()
		if m.Failed {
			q.cb(nil, ErrExitFailed)
		} else {
			q.cb(m.Resp, nil)
		}
		return true
	}
	// Ours but late: the dropped-query report, still pinging, stands down.
	return p.timedOut.set(m.QID, true)
}

// takeHeadReceipt reports whether r is the first relay's receipt for one of
// the node's pending queries. Such a receipt sets the query's bit when it
// verifies exactly as evidence.addReceipt would verify it; every other
// receipt is left to evidence.
func (p *paths) takeHeadReceipt(r Receipt) bool {
	q, ok := p.pending[r.QID]
	if !ok || !q.head.Valid() || r.Issuer != q.head {
		return false
	}
	q.headReceipt = q.headReceipt || p.n.dir.VerifyReceipt(r)
	return true
}

// chainQuery sends req through an arbitrary relay route and returns the
// pending query (nil for an empty route). With a valid target the final
// relay acts as exit and queries target; with target == chord.NoPeer the
// final relay consumes req itself (Local delivery). delayAt, when >= 0,
// selects the route index that must add the random anti-timing delay. cb is
// invoked exactly once, always asynchronously.
func (p *paths) chainQuery(route []chord.Peer, target chord.Peer, req transport.Message,
	timeout time.Duration, delayAt int, cb func(transport.Message, error)) *pendingQuery {
	n := p.n
	if len(route) == 0 {
		// Degenerate direct query (bootstrap only).
		n.tr.Call(n.Chord.Self.Addr, target.Addr, req, timeout, cb)
		return nil
	}
	p.qidSeq++
	qid := p.qidSeq<<16 | uint64(n.Chord.Self.Addr)&0xffff

	// Build layers inside-out.
	inner := &RelayForward{QID: qid, Local: req, Depth: 1}
	if target.Valid() {
		inner = &RelayForward{QID: qid, Exit: &ExitAction{Target: target.Addr, Req: req}, Depth: 1}
	}
	// inner is the layer for route[len-1]; wrap the remaining relays.
	for i := len(route) - 1; i >= 1; i-- {
		layer := &RelayForward{QID: qid, Next: route[i].Addr, Inner: inner, Depth: inner.Depth + 1}
		if i-1 == delayAt {
			layer.Delay = n.cfg.RelayDelayMax
		}
		inner = layer
	}
	timer := n.tr.After(n.Chord.Self.Addr, timeout, func() {
		if q, ok := p.pending[qid]; ok {
			delete(p.pending, qid)
			p.timedOut.put(qid, false) // a reply still in flight is late, not relayed traffic
			q.cb(nil, ErrQueryTimeout)
		}
	})
	q := &pendingQuery{cb: cb, timer: timer, qid: qid, head: route[0]}
	// On its own route the node is a relay too, and its receipt watch reads
	// evidence (ROADMAP 20(d): a walk back through its initiator).
	if slices.ContainsFunc(route, func(r chord.Peer) bool { return r.Addr == n.Chord.Self.Addr }) {
		q.head = chord.NoPeer
	}
	p.pending[qid] = q
	n.tr.Send(n.Chord.Self.Addr, route[0].Addr, *inner)
	return q
}

// anonQuery sends req to target through the 4-relay anonymous path
// I → A → B → Ci → Di → target (Fig. 1(b)) and invokes cb exactly once.
// head is the lookup's shared (A, B) pair; pair is this query's (Ci, Di).
// Relay B (route index 1) adds the anti-timing-analysis delay (§4.7). With
// DoSDefense on, a silent loss triggers the Appendix II reporting path.
func (p *paths) anonQuery(head, pair RelayPair, target chord.Peer, req transport.Message, cb func(transport.Message, error)) {
	n := p.n
	n.stats.QueriesSent.Add(1)
	route := []chord.Peer{head.First, head.Second, pair.First, pair.Second}
	var q *pendingQuery
	q = p.chainQuery(route, target, req, n.cfg.QueryTimeout, 1,
		func(resp transport.Message, err error) {
			// chainQuery completes strictly asynchronously, so q is
			// assigned by the time this runs. Only a silent loss
			// implicates the path; an explicit exit failure means the
			// relays all did their job (the target was unreachable).
			if errors.Is(err, ErrQueryTimeout) && n.cfg.DoSDefense {
				p.reportDroppedQuery(q.qid, route, q.headReceipt || n.evidence.hasReceipt(q.qid))
			}
			cb(resp, err)
		})
}

// reportDroppedQuery implements the initiator side of Appendix II: when a
// query reply misses its deadline and the path relays are still alive, the
// initiator hands the relay identities to the CA, which walks the receipt
// trail to locate the dropper. hasHead is whether a valid receipt for the
// query arrived.
func (p *paths) reportDroppedQuery(qid uint64, relays []chord.Peer, hasHead bool) {
	n := p.n
	alive, total := 0, len(relays)
	for _, r := range relays {
		n.tr.Call(n.Chord.Self.Addr, r.Addr, chord.PingReq{}, n.cfg.Chord.RPCTimeout,
			func(_ transport.Message, err error) {
				total--
				if err == nil {
					alive++
				}
				// All four relays alive and the reply has not surfaced
				// meanwhile (late is not lost): the loss was malicious.
				if late, _ := p.timedOut.get(qid); !late && total == 0 && alive == len(relays) {
					n.report(ReportMsg{Kind: ReportSelectiveDrop, Relays: relays, QID: qid, HasHeadReceipt: hasHead})
				}
			})
	}
}
