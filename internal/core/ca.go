package core

import (
	"maps"
	"slices"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// CA is the Octopus certificate authority (§4.6): it validates surveillance
// reports, runs proof-chain investigations (Fig. 2(b)), and revokes the
// certificates of identified attackers. Unlike Myrmic's CA it touches no
// routing state — its only write operation is revocation — so its workload
// shrinks to zero once the attacker population is cleaned out (Fig. 7(b)).
type CA struct {
	tr   transport.Transport
	addr transport.Addr
	dir  *Directory
	auth *xcrypto.CA

	// Freshness is the maximum age of evidence tables; stale evidence is
	// rejected to keep the false-positive rate at zero under churn.
	Freshness time.Duration
	// SettleTime is the stabilization slack: a table only incriminates
	// its signer w.r.t. a node whose certificate was issued at least
	// SettleTime before the table's timestamp — otherwise an honest
	// signer may simply not have learned about the newcomer yet.
	SettleTime time.Duration
	// FingerSettle is the analogous slack for finger claims: fingers
	// refresh once per finger-update period, so a closer node must have
	// existed at least a full period (plus slack) before the claim.
	FingerSettle time.Duration
	// FingerSettleStrict applies when the accused presents NO provenance
	// for a disputed finger. Honest nodes can hold a stale finger for
	// several refresh periods when updates keep failing under churn, so
	// convicting without provenance demands a wider margin.
	FingerSettleStrict time.Duration
	// RPCTimeout bounds each investigation message.
	RPCTimeout time.Duration
	// MaxChain caps proof-chain depth (the successor-list length).
	MaxChain int
	// DropGrace delays selective-DoS investigations so relays' witness
	// protocols can finish collecting receipts and failure statements;
	// investigating too early would blame an honest relay still waiting
	// on its witnesses.
	DropGrace time.Duration

	// AdmitPolicy, when set, gates online admission before any
	// certificate is issued. This is where a deployment implements the
	// paper's §3.2 Sybil limit — the paper assumes the CA binds
	// certificates to an external identity check, which no protocol
	// message can provide. octopusd installs a per-endpoint grant cap as
	// a baseline resource bound; nil admits every well-formed request.
	AdmitPolicy func(from transport.Addr, req CertIssueReq) bool
	// AllocAddr, when set, allocates a fresh network address for a
	// joiner that proposed none (socket deployments wire it to the
	// transport's dynamic endpoint table). Nil means joiners must
	// propose their own address.
	AllocAddr func(endpoint string) (transport.Addr, bool)
	// Announce, when set, is invoked after each successful admission so
	// the deployment can broadcast the joiner's certificate and endpoint.
	// The message is fully assembled and attested by the CA; the hook
	// only moves it.
	Announce func(m EndpointAnnounce)
	// AnnounceRevocation, when set, is invoked after each revocation so
	// the deployment can broadcast it — without propagation, only the
	// CA's own process would refuse a revoked node's still-valid
	// certificate at join admission.
	AnnounceRevocation func(m RevocationAnnounce)
	// OnRetire, when set, fires when an online grant is retired
	// (CertRetireReq), so admission quotas can be released.
	OnRetire func(endpoint string, addr transport.Addr)

	// OnRevoke fires when a node is judged malicious; the experiment
	// harness uses it to eject the node from the simulated network.
	OnRevoke func(p chord.Peer, kind ReportKind)

	investigating map[id.ID]bool
	granted       map[id.ID]grant
	grantSeq      uint64 // admission ordinal; orders endpoint announces
	revocations   []revocation
	stats         CAStats
}

// revocation remembers a revocation broadcast for the re-announce window.
type revocation struct {
	node id.ID
	sig  []byte
	at   time.Duration
}

// grant remembers one online admission so a re-request (a joiner whose
// CertIssueResp was lost) receives the identical grant instead of a
// refusal.
type grant struct {
	cert     xcrypto.Certificate
	endpoint string
	seq      uint64        // admission ordinal, covered by sig
	sig      []byte        // endpoint attestation
	at       time.Duration // issuance time; bounds the re-announce window
}

// announce assembles the grant's broadcast message.
func (g grant) announce() EndpointAnnounce {
	return EndpointAnnounce{
		Who:      chord.Peer{ID: g.cert.Node, Addr: transport.Addr(g.cert.Addr)},
		Endpoint: g.endpoint,
		Cert:     g.cert,
		Seq:      g.seq,
		Sig:      g.sig,
	}
}

// CAStats aggregates the CA's casework.
type CAStats struct {
	ReportsReceived  uint64
	Investigations   uint64
	Revocations      uint64
	FalseAlarms      uint64 // investigations that identified nobody
	StaleEvidence    uint64
	BadSignatures    uint64
	DuplicateReports uint64
	ByKind           map[ReportKind]uint64
	// JoinsAdmitted and JoinsRefused count online admissions
	// (CertIssueReq outcomes).
	JoinsAdmitted uint64
	JoinsRefused  uint64
}

// NewCA binds a CA at addr. auth is the PKI primitive whose Revoke is the
// CA's final action.
func NewCA(tr transport.Transport, addr transport.Addr, dir *Directory, auth *xcrypto.CA) *CA {
	ca := &CA{
		tr:                 tr,
		addr:               addr,
		dir:                dir,
		auth:               auth,
		Freshness:          2 * time.Minute,
		SettleTime:         30 * time.Second,
		FingerSettle:       2 * time.Minute,
		FingerSettleStrict: 5 * time.Minute,
		RPCTimeout:         2 * time.Second,
		MaxChain:           8,
		DropGrace:          12 * time.Second,
		investigating:      make(map[id.ID]bool),
		granted:            make(map[id.ID]grant),
	}
	ca.stats.ByKind = make(map[ReportKind]uint64)
	auth.SetClock(ca.tr.Now)
	tr.Bind(addr, ca.handle)
	return ca
}

// Addr returns the CA's network address.
func (ca *CA) Addr() transport.Addr { return ca.addr }

// Stats returns a copy of the CA's casework counters.
func (ca *CA) Stats() CAStats {
	out := ca.stats
	out.ByKind = maps.Clone(ca.stats.ByKind)
	return out
}

// MessagesReceived reports the CA's total inbound message count (the
// Fig. 7(b) workload metric).
func (ca *CA) MessagesReceived() uint64 {
	return ca.tr.Stats(ca.addr).MsgsReceived
}

// Revoked reports whether a node has been revoked.
func (ca *CA) Revoked(node id.ID) bool { return ca.auth.Revoked(node) }

func (ca *CA) handle(from transport.Addr, req transport.Message) (transport.Message, bool) {
	if issue, ok := req.(CertIssueReq); ok {
		return ca.handleCertIssue(from, issue)
	}
	if retire, ok := req.(CertRetireReq); ok {
		return ca.handleRetire(from, retire)
	}
	m, ok := req.(ReportMsg)
	if !ok {
		return nil, false
	}
	ca.stats.ReportsReceived++
	ca.stats.ByKind[m.Kind]++
	if ca.auth.Revoked(m.Accused.ID) || ca.investigating[m.Accused.ID] {
		ca.stats.DuplicateReports++
		return ReportAck{}, true
	}
	ca.investigating[m.Accused.ID] = true
	ca.stats.Investigations++
	done := func(guilty chord.Peer, kind ReportKind) {
		delete(ca.investigating, m.Accused.ID)
		if !guilty.Valid() {
			ca.stats.FalseAlarms++
			return
		}
		ca.revoke(guilty, kind)
	}
	switch m.Kind {
	case ReportNeighborOmission:
		ca.investigateOmission(m, done)
	case ReportFingerManipulation, ReportFingerPollution:
		ca.investigateFinger(m, done)
	case ReportSelectiveDrop:
		ca.tr.After(ca.addr, ca.DropGrace, func() { ca.investigateDrop(m, done) })
	default:
		done(chord.NoPeer, m.Kind)
	}
	return ReportAck{}, true
}

func (ca *CA) revoke(p chord.Peer, kind ReportKind) {
	if ca.auth.Revoked(p.ID) {
		return
	}
	ca.propagateRevocation(p.ID)
	ca.stats.Revocations++
	if ca.OnRevoke != nil {
		ca.OnRevoke(p, kind)
	}
}

// fresh reports whether an evidence table is recent enough to adjudicate.
func (ca *CA) fresh(t chord.RoutingTable) bool {
	age := ca.tr.Now() - t.Timestamp
	return age >= 0 && age <= ca.Freshness
}

func (ca *CA) verified(t chord.RoutingTable) bool {
	if !ca.dir.VerifyTable(t) {
		ca.stats.BadSignatures++
		return false
	}
	if !ca.fresh(t) {
		ca.stats.StaleEvidence++
		return false
	}
	return true
}

// ping checks that the node with this IDENTITY is alive: a ping answered
// by a replacement node occupying the same address after churn must not
// count (the paper's "churn during investigation" pitfall, §5.2). The CA
// fetches the responder's signed table and verifies the owner identity.
func (ca *CA) ping(p chord.Peer, cb func(alive bool)) {
	ca.tr.Call(ca.addr, p.Addr, chord.GetTableReq{}, ca.RPCTimeout,
		func(resp transport.Message, err error) {
			r, ok := resp.(chord.GetTableResp)
			cb(err == nil && ok && r.Table.Owner.ID == p.ID && ca.dir.VerifyTable(r.Table))
		})
}

// settledBy reports whether a node's certificate is old enough — by slack —
// relative to a table's timestamp for its omission from that table to be
// incriminating.
func (ca *CA) settledBy(node id.ID, tableTime, slack time.Duration) bool {
	issued, known := ca.auth.IssuedAt(node)
	if !known {
		return false
	}
	return issued+slack <= tableTime
}

// investigateOmission runs the proof-chain walk of §4.3 (Fig. 2(b)). The
// evidence is the accused's signed successor list omitting Missing. At each
// chain step the CA holds a signed list L_V from node V:
//
//   - if some fresh proof V received from its first successor contains
//     Missing while L_V omits it, V dropped Missing → guilty (Fig. 2(b),
//     the P2 case);
//   - if Missing lies strictly between V and L_V's head, V skipped its own
//     direct successor, which no proof can justify → guilty (the P1 case);
//   - otherwise V computed L_V honestly from its inputs → move to the
//     input provider (L_V's head) with the freshest proof as the new
//     evidence.
//
// Every accusation is gated on Missing being alive, which keeps churn from
// producing false positives.
func (ca *CA) investigateOmission(m ReportMsg, done func(chord.Peer, ReportKind)) {
	if len(m.Evidence) == 0 {
		done(chord.NoPeer, m.Kind)
		return
	}
	evidence := m.Evidence[0]
	// An omission only incriminates if the omitted node existed long
	// enough before the table was signed for stabilization to have
	// propagated it (churn tolerance; Table 2's zero false positives).
	if evidence.Owner.ID != m.Accused.ID || !ca.verified(evidence) ||
		!OmittedFromSuccessors(evidence, m.Missing) ||
		!ca.settledBy(m.Missing.ID, evidence.Timestamp, ca.SettleTime) {
		done(chord.NoPeer, m.Kind)
		return
	}
	ca.ping(m.Missing, func(alive bool) {
		if !alive {
			done(chord.NoPeer, m.Kind) // churn, not manipulation
			return
		}
		ca.chainStep(m, m.Accused, evidence, ca.MaxChain, done)
	})
}

// chainStep adjudicates one node of the proof chain. `committed` is a
// signed list by cur that provably omits Missing. Guilt rules:
//
//   - head-skip (the P1 case of Fig. 2(b)): Missing lies strictly between
//     cur and committed's first successor — no input can justify skipping
//     one's own direct successor;
//   - dropped input (the P2 case): some proof cur received from its head
//     at or before signing `committed` contained Missing at a position the
//     successor-list merge must have retained;
//   - non-cooperation: cur is alive (identity-verified) but provides no
//     valid proofs.
//
// Otherwise cur computed its list honestly from its inputs and the walk
// moves to the input provider with the freshest incriminating proof as the
// new committed list.
func (ca *CA) chainStep(m ReportMsg, cur chord.Peer, committed chord.RoutingTable,
	depth int, done func(chord.Peer, ReportKind)) {
	if depth <= 0 || len(committed.Successors) == 0 {
		done(chord.NoPeer, m.Kind)
		return
	}
	head := committed.Successors[0]
	if id.StrictBetween(m.Missing.ID, cur.ID, head.ID) {
		done(cur, m.Kind) // head-skip
		return
	}
	ca.tr.Call(ca.addr, cur.Addr, ProofReq{Missing: m.Missing}, ca.RPCTimeout,
		func(resp transport.Message, err error) {
			if err != nil {
				ca.ping(cur, func(alive bool) {
					if alive {
						done(cur, m.Kind) // refused the investigation
					} else {
						done(chord.NoPeer, m.Kind) // churned mid-case
					}
				})
				return
			}
			r, ok := resp.(ProofResp)
			if !ok {
				done(cur, m.Kind)
				return
			}
			// Only inputs from the committed head, signed no later
			// than the committed output, bear on its honesty.
			retain := len(committed.Successors) - 1
			var newest chord.RoutingTable
			haveProof := false
			for _, proof := range r.Proofs {
				if proof.Owner.ID != head.ID || proof.Timestamp > committed.Timestamp ||
					!ca.verified(proof) {
					continue
				}
				for idx, s := range proof.Successors {
					if s.ID == m.Missing.ID && idx < retain {
						done(cur, m.Kind) // dropped a retainable input
						return
					}
				}
				if !haveProof || proof.Timestamp > newest.Timestamp {
					newest, haveProof = proof, true
				}
			}
			if !haveProof {
				done(cur, m.Kind) // no valid proof explains the omission
				return
			}
			// cur is exonerated; the omission came from its input.
			// Continue only while the input itself provably omits
			// Missing.
			if !OmittedFromSuccessors(newest, m.Missing) {
				done(chord.NoPeer, m.Kind)
				return
			}
			ca.chainStep(m, head, newest, depth-1, done)
		})
}

// investigateFinger adjudicates finger-manipulation (§4.4) and
// finger-pollution (§4.5) reports. The evidence is [claimant's signed
// table, F”s signed predecessor list, P'1's signed successor list]; the
// CA re-checks the signatures and the geometry, confirms the closer node is
// alive at its claimed position, and revokes the claimant.
func (ca *CA) investigateFinger(m ReportMsg, done func(chord.Peer, ReportKind)) {
	if len(m.Evidence) < 2 || !m.Missing.Valid() || !m.ClaimedFinger.Valid() {
		done(chord.NoPeer, m.Kind)
		return
	}
	claim := m.Evidence[0]
	if claim.Owner.ID != m.Accused.ID || !ca.verified(claim) {
		done(chord.NoPeer, m.Kind)
		return
	}
	// The closer node must have existed a full finger-update period
	// before the claim was signed, or the claimant may honestly hold a
	// not-yet-refreshed finger.
	if !ca.settledBy(m.Missing.ID, claim.Timestamp, ca.FingerSettle) {
		done(chord.NoPeer, m.Kind)
		return
	}
	// The claimant's table must actually contain the disputed assertion —
	// for manipulation reports, the finger at exactly the ideal position
	// in dispute; for pollution reports, any entry vouching for the
	// biased owner.
	asserted := assertsOwner(claim, m.IdealID, m.ClaimedFinger)
	if m.Kind == ReportFingerManipulation {
		asserted = fingerAssertsAt(claim, m.ClaimedFinger, m.IdealID)
	}
	if !asserted {
		done(chord.NoPeer, m.Kind)
		return
	}
	// The witness table must place the closer node in [ideal, F'). The
	// closer node may appear in a probed predecessor's successor list
	// (the §4.4 anonymous probe) or in F''s own predecessor list (the
	// direct check).
	witness := m.Evidence[len(m.Evidence)-1]
	listed := func(p chord.Peer) bool { return p.ID == m.Missing.ID }
	if !ca.verified(witness) || !inHalfOpenLeft(m.Missing.ID, m.IdealID, m.ClaimedFinger.ID) ||
		!(slices.ContainsFunc(witness.Successors, listed) || slices.ContainsFunc(witness.Predecessors, listed)) {
		done(chord.NoPeer, m.Kind)
		return
	}
	ca.ping(m.Missing, func(alive bool) {
		if !alive {
			done(chord.NoPeer, m.Kind)
			return
		}
		// The claim is proven wrong. Before convicting the claimant,
		// let it present the provenance of the disputed entry: an
		// honest node deceived during its secured finger update holds
		// the deceiver's signed table, which shifts the blame (the
		// adversary "has to sacrifice at least one malicious node").
		// Deception can chain — a deceived node's tables deceive others
		// — so the walk recurses until a node has no further vouch.
		ca.provenanceWalk(m, m.Accused, claim.Timestamp, 4, done)
	})
}

// provenanceWalk follows the who-vouched-for-whom chain of a disputed
// finger claim and convicts its origin.
func (ca *CA) provenanceWalk(m ReportMsg, cur chord.Peer, claimTime time.Duration,
	depth int, done func(chord.Peer, ReportKind)) {
	convictCur := func() {
		// Convicting without provenance demands the strict margin: an
		// honest node may hold a stale finger through several failed
		// refresh rounds, but not this long.
		if !ca.settledBy(m.Missing.ID, claimTime, ca.FingerSettleStrict) {
			done(chord.NoPeer, m.Kind)
			return
		}
		done(cur, m.Kind)
	}
	if depth <= 0 {
		convictCur()
		return
	}
	ca.tr.Call(ca.addr, cur.Addr, ProofReq{FingerClaim: m.ClaimedFinger}, ca.RPCTimeout,
		func(resp transport.Message, err error) {
			r, ok := resp.(ProofResp)
			if err != nil || !ok || !r.HasProvenance || !r.Provenance.Owner.Valid() ||
				r.Provenance.Owner.ID == cur.ID ||
				!ca.dir.VerifyTable(r.Provenance) ||
				!assertsOwner(r.Provenance, m.IdealID, m.ClaimedFinger) {
				convictCur()
				return
			}
			// A stale honest vouch proves nobody's malice: the vouch
			// predates when its owner could have known the closer node.
			if !ca.fresh(r.Provenance) ||
				!ca.settledBy(m.Missing.ID, r.Provenance.Timestamp, ca.FingerSettle) {
				done(chord.NoPeer, m.Kind)
				return
			}
			ca.provenanceWalk(m, r.Provenance.Owner, r.Provenance.Timestamp, depth-1, done)
		})
}

// investigateDrop is the CA's side of the selective-DoS defense (Appendix
// II; relays collect the evidence — relay.go, evidence.go — and an initiator
// whose query vanished reports the chain — paths.go). It walks the receipt
// trail of the reported query: the first relay that holds neither its next
// hop's receipt nor witness statements proving a refused delivery is the
// dropper; a relay with failure statements shifts the blame to its next hop.
func (ca *CA) investigateDrop(m ReportMsg, done func(chord.Peer, ReportKind)) {
	if len(m.Relays) == 0 || m.QID == 0 || !m.HasHeadReceipt {
		done(chord.NoPeer, m.Kind)
		return
	}
	chain := m.Relays
	var step func(i int)
	step = func(i int) {
		hop := chain[i]
		ca.ping(hop, func(alive bool) {
			if !alive {
				done(chord.NoPeer, m.Kind) // churn, not an attack
				return
			}
			if i == len(chain)-1 {
				// The exit holds no onward receipt by design; if
				// everything before it checked out, it is the
				// dropper.
				done(hop, m.Kind)
				return
			}
			ca.tr.Call(ca.addr, hop.Addr, ProofReq{QID: m.QID}, ca.RPCTimeout,
				func(resp transport.Message, err error) {
					r, ok := resp.(ProofResp)
					if err != nil || !ok {
						done(hop, m.Kind) // refused the investigation
						return
					}
					next := chain[i+1]
					for _, rc := range r.Receipts {
						if rc.QID == m.QID && rc.Issuer.ID == next.ID && ca.dir.VerifyReceipt(rc) {
							step(i + 1) // delivered onward; move down the chain
							return
						}
					}
					for _, st := range r.Statements {
						if st.QID == m.QID && !st.Delivered && ca.dir.VerifyStatement(st) {
							// Witnesses confirm the next hop refused
							// delivery while alive.
							done(next, m.Kind)
							return
						}
					}
					// No receipt and no witness evidence: this relay
					// never actually forwarded.
					done(hop, m.Kind)
				})
		})
	}
	step(0)
}

// fingerAssertsAt reports whether a signed table claims `p` as the finger
// for exactly the given ideal position.
func fingerAssertsAt(t chord.RoutingTable, p chord.Peer, ideal id.ID) bool {
	for i, f := range t.Fingers {
		if f.ID != p.ID {
			continue
		}
		if got, ok := t.IdealOf(i); ok && got == ideal {
			return true
		}
	}
	return false
}

// assertsOwner reports whether a signed table VOUCHES that `claimed` owns
// the position `ideal`: either its successor chain yields `claimed` as the
// first node at/after the ideal, or a finger slot targeting exactly that
// ideal points at `claimed`. Mere membership elsewhere in the table is not
// a vouch — honest tables legitimately list many nodes.
func assertsOwner(t chord.RoutingTable, ideal id.ID, claimed chord.Peer) bool {
	if fingerAssertsAt(t, claimed, ideal) {
		return true
	}
	prev := t.Owner.ID
	for _, s := range t.Successors {
		if !s.Valid() {
			continue
		}
		if id.Between(ideal, prev, s.ID) {
			return s.ID == claimed.ID
		}
		prev = s.ID
	}
	return false
}
