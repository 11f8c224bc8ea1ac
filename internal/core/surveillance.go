package core

import (
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// The three secret security checks of §4.3–§4.5. All of them ride on
// anonymous queries that the checked node cannot distinguish from ordinary
// lookup traffic, which is what removes the tension between security checks
// and anonymity that redundant-lookup schemes suffer from (§4.3).

// OmittedFromSuccessors reports whether a signed successor list provably
// skips over `who`: who is absent while some listed successor lies farther
// clockwise. A merely short or stale list (no farther entry) is NOT treated
// as manipulation — that tolerance is what keeps the false-positive rate at
// zero under churn (Table 2).
func OmittedFromSuccessors(t chord.RoutingTable, who chord.Peer) bool {
	if who.ID == t.Owner.ID {
		return false
	}
	for _, s := range t.Successors {
		if s.ID == who.ID {
			return false
		}
	}
	for _, s := range t.Successors {
		if id.StrictBetween(who.ID, t.Owner.ID, s.ID) {
			return true
		}
	}
	return false
}

// neighborSurveillance is one round of secret neighbor surveillance (§4.3,
// Fig. 2(a)): pick a random predecessor, fetch its signed successor list
// through an anonymous path, and report it to the CA if it provably omits
// this node.
func (n *Node) neighborSurveillance() {
	preds := n.Chord.Predecessors()
	if len(preds) == 0 {
		return
	}
	target := preds[n.tr.Rand().Intn(len(preds))]
	sent := n.probeSuccessors(target, func(table chord.RoutingTable, err error) {
		if err != nil {
			// A dead neighbor is stabilization's business, and an
			// unverifiable table cannot back a report.
			return
		}
		detected := OmittedFromSuccessors(table, n.Chord.Self)
		if n.OnNeighborCheck != nil {
			n.OnNeighborCheck(target, detected)
		}
		if detected {
			n.report(ReportMsg{
				Kind:     ReportNeighborOmission,
				Accused:  target,
				Missing:  n.Chord.Self,
				Evidence: []chord.RoutingTable{table},
			})
		}
	})
	if sent {
		n.stats.ChecksRun.Add(1)
	}
}

// probeSuccessors anonymously fetches target's signed successor list — the
// probe both surveillance checks end in — over peeked pairs, and reports
// whether it could be sent at all (the relay pool may still be warming up).
func (n *Node) probeSuccessors(target chord.Peer, cb func(chord.RoutingTable, error)) bool {
	head, err := n.pairs.peek(nil)
	if err != nil {
		return false
	}
	pair, err := n.pairs.peek(&head)
	if err != nil {
		return false
	}
	n.paths.anonQuery(head, pair, target, chord.GetTableReq{IncludeSuccessors: true},
		func(resp transport.Message, err error) { cb(n.signedTableOf(resp, err, target)) })
	return true
}

// matchIdealFinger returns the ideal finger position a claimed finger is
// supposed to serve: the finger target of `owner` most tightly preceding
// the claimed finger's identifier.
func matchIdealFinger(owner, finger id.ID) id.ID {
	best := owner.FingerTarget(0)
	bestDist := best.Distance(finger)
	for i := 1; i < id.Bits; i++ {
		t := owner.FingerTarget(i)
		if d := t.Distance(finger); d < bestDist {
			best, bestDist = t, d
		}
	}
	return best
}

// inHalfOpenLeft reports x ∈ [lo, hi) on the ring.
func inHalfOpenLeft(x, lo, hi id.ID) bool {
	return x == lo || id.StrictBetween(x, lo, hi)
}

// fingerSurveillance is one round of secret finger surveillance (§4.4,
// Fig. 2(c)): pick a random finger F' from a buffered fingertable, learn
// F”s predecessor list, then anonymously fetch a random predecessor's
// successor list and look for a live node closer to the ideal finger
// position than F'.
func (n *Node) fingerSurveillance() {
	rng := n.tr.Rand()
	table, ok := n.evidence.bufferedTable(rng)
	if !ok || len(table.Fingers) == 0 {
		return
	}
	idx := rng.Intn(len(table.Fingers))
	claimed := table.Fingers[idx]
	ideal, ok := table.IdealOf(idx)
	if !ok {
		// Tables without slot exponents cannot be checked precisely;
		// fall back to the tightest matching ideal.
		ideal = matchIdealFinger(table.Owner.ID, claimed.ID)
	}
	n.stats.ChecksRun.Add(1)
	n.consistencyCheck(ideal, claimed, func(closer chord.Peer, evidence []chord.RoutingTable, err error) {
		if n.OnFingerCheck != nil {
			n.OnFingerCheck(table.Owner, claimed, err == nil && closer.Valid(), err)
		}
		if err != nil || !closer.Valid() {
			return
		}
		n.report(ReportMsg{
			Kind:          ReportFingerManipulation,
			Accused:       table.Owner,
			Missing:       closer,
			IdealID:       ideal,
			ClaimedFinger: claimed,
			Evidence:      append([]chord.RoutingTable{table}, evidence...),
		})
	})
}

// consistencyCheck implements the shared predecessor-consistency probe of
// §4.4/§4.5: ask the claimed finger F' for its predecessor list (directly),
// wait a short random period, then anonymously fetch a random predecessor's
// successor list; any live node in [ideal, F') proves the claim wrong.
// cb receives the closer node (or NoPeer) and the signed evidence tables.
func (n *Node) consistencyCheck(ideal id.ID, claimed chord.Peer,
	cb func(closer chord.Peer, evidence []chord.RoutingTable, err error)) {
	n.tr.Call(n.Chord.Self.Addr, claimed.Addr,
		chord.GetTableReq{IncludePredecessors: true}, n.cfg.Chord.RPCTimeout,
		func(resp transport.Message, err error) {
			predTable, err := n.signedTableOf(resp, err, claimed)
			if err != nil {
				cb(chord.NoPeer, nil, err)
				return
			}
			// Step 1: any predecessor of F' that itself lies in
			// [ideal, F') already disproves the claim — F' cannot be
			// the first node at/after the ideal.
			for _, p := range predTable.Predecessors {
				if p.Valid() && inHalfOpenLeft(p.ID, ideal, claimed.ID) {
					cb(p, []chord.RoutingTable{predTable}, nil)
					return
				}
			}
			// Step 2: probe a predecessor that PRECEDES the ideal, so
			// its successor list spans the gap [ideal, F') the claim
			// asserts empty. Predecessors at or past the ideal would
			// be blind to it.
			var eligible []chord.Peer
			for _, p := range predTable.Predecessors {
				if p.Valid() && !inHalfOpenLeft(p.ID, ideal, claimed.ID) && p.ID != claimed.ID {
					eligible = append(eligible, p)
				}
			}
			if len(eligible) == 0 {
				cb(chord.NoPeer, []chord.RoutingTable{predTable}, nil)
				return
			}
			p1 := eligible[n.tr.Rand().Intn(len(eligible))]
			// "After a short random period of time" (§4.4) the
			// anonymous probe follows, so F' cannot correlate the two.
			delay := time.Duration(n.tr.Rand().Int63n(int64(5 * time.Second)))
			n.tr.After(n.Chord.Self.Addr, delay, func() {
				n.probePredecessor(ideal, claimed, predTable, p1, cb)
			})
		})
}

func (n *Node) probePredecessor(ideal id.ID, claimed chord.Peer,
	predTable chord.RoutingTable, p1 chord.Peer,
	cb func(chord.Peer, []chord.RoutingTable, error)) {
	sent := n.probeSuccessors(p1, func(succTable chord.RoutingTable, err error) {
		if err != nil {
			cb(chord.NoPeer, nil, err)
			return
		}
		// The true finger must be the first live node at or after the
		// ideal position: any successor of P'1 in [ideal, F') contradicts
		// the claim.
		for _, s := range succTable.Successors {
			if s.Valid() && s.ID != claimed.ID && inHalfOpenLeft(s.ID, ideal, claimed.ID) {
				cb(s, []chord.RoutingTable{predTable, succTable}, nil)
				return
			}
		}
		cb(chord.NoPeer, []chord.RoutingTable{predTable, succTable}, nil)
	})
	if !sent {
		cb(chord.NoPeer, nil, ErrNoRelays)
	}
}

// secureFingerUpdate is one round of Octopus's secured finger maintenance
// (§4.5): every FixFingersEvery the node refreshes ALL finger slots (§5.1:
// "performs lookups for finger updates every 30 seconds"), vetting each
// result with the predecessor-consistency probe before installing it. A
// failed probe yields a pollution report against the node whose signed
// table asserted the biased owner. Refreshing every slot per round bounds
// finger staleness by one period, which is what lets the CA adjudicate
// finger reports without false positives under churn.
func (n *Node) secureFingerUpdate() {
	for slot := 0; slot < n.cfg.Chord.Fingers; slot++ {
		n.updateFingerSlot(slot)
	}
}

func (n *Node) updateFingerSlot(slot int) {
	ideal := n.Chord.FingerTarget(slot)
	n.DirectTableLookup(ideal, func(res DirectLookupResult, _ LookupStats, err error) {
		if err != nil || !res.Owner.Valid() || res.Owner.ID == n.Chord.Self.ID {
			return
		}
		// An unchanged result was vetted when first installed; only new
		// candidates need the consistency probe.
		cur := n.Chord.Fingers()
		if slot < len(cur) && cur[slot].ID == res.Owner.ID {
			return
		}
		n.consistencyCheck(ideal, res.Owner, func(closer chord.Peer, evidence []chord.RoutingTable, err error) {
			if err != nil {
				return // inconclusive: keep the old finger
			}
			if !closer.Valid() {
				n.Chord.SetFinger(slot, res.Owner)
				if res.HasEvidence {
					n.evidence.recordFingerProvenance(res.Owner.ID, res.Evidence)
				}
				return
			}
			// The lookup was biased: accuse the node whose signed
			// table vouched for the bogus owner (§4.5).
			if !res.HasEvidence {
				return // owner came from local state; nothing to report
			}
			accused := res.Evidence.Owner
			if !accused.Valid() {
				return
			}
			n.report(ReportMsg{
				Kind:          ReportFingerPollution,
				Accused:       accused,
				Missing:       closer,
				IdealID:       ideal,
				ClaimedFinger: res.Owner,
				Evidence:      append([]chord.RoutingTable{res.Evidence}, evidence...),
			})
		})
	})
}

// signedTable vets the outcome (resp, err) of a GetTableReq: the query must
// have succeeded and the table's signature must verify. It does not tie the
// table to whoever was asked: walk phase 1, alone among the signed-table
// fetches, never has (ROADMAP item 3 records it) and calls this directly;
// everything else goes through signedTableOf.
func (n *Node) signedTable(resp transport.Message, err error) (chord.RoutingTable, error) {
	r, ok := resp.(chord.GetTableResp)
	switch {
	case err != nil:
	case !ok:
		err = errWalkBadResponse
	case !n.dir.VerifyTable(r.Table):
		err = errWalkBadSig
	}
	return r.Table, err
}

// signedTableOf also requires the table to be owner's own: anything else is a
// wrong responder (address reuse after churn) or a substitution.
func (n *Node) signedTableOf(resp transport.Message, err error, owner chord.Peer) (chord.RoutingTable, error) {
	t, err := n.signedTable(resp, err)
	if err == nil && t.Owner.ID != owner.ID {
		err = errWalkBadResponse
	}
	return t, err
}

// report submits a surveillance report to the CA.
func (n *Node) report(msg ReportMsg) {
	n.stats.ReportsSent.Add(1)
	n.tr.Call(n.Chord.Self.Addr, n.caAddr, msg, n.cfg.Chord.RPCTimeout,
		func(transport.Message, error) {})
}
