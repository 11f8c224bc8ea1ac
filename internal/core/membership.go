package core

import (
	"bytes"
	"errors"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Online membership: the CA side of dynamic join (§3.2 — certificates are
// the Sybil limit, so admission IS certificate issuance), the node-side
// admission check, and the wire-routed rejoin used by churn. The message
// codes extend the 0x03xx membership registry started in internal/chord.

// ErrAdmissionRefused is reported when the CA declines to certify a joiner.
var ErrAdmissionRefused = errors.New("core: CA refused to certify the joiner")

// CertIssueReq asks the CA to certify a new identity at join time. The
// joiner mints its own key pair and ring identifier; the CA enforces
// uniqueness and (on transports with dynamic address tables) allocates the
// network address the certificate binds.
type CertIssueReq struct {
	// ID is the joiner's chosen ring identifier.
	ID id.ID
	// Addr is the proposed network address. In-process deployments reuse
	// the slot being replaced; NoAddr asks the CA to allocate one (the
	// octopusd -join path).
	Addr transport.Addr
	// Key is the joiner's public key, to be bound by the certificate.
	Key xcrypto.PublicKey
	// Endpoint is the joiner's dialable TCP endpoint (socket deployments
	// only; empty in-process).
	Endpoint string
	// WantRoster requests the directory snapshot and endpoint table in
	// the response. Out-of-process joiners need both; in-process rejoins
	// share the directory already and skip the bytes.
	WantRoster bool
}

// CertIssueResp carries the CA's admission verdict and, on success, the
// issued certificate plus everything a fresh process needs to participate:
// the CA public key, the identity roster, and the endpoint table.
type CertIssueResp struct {
	OK bool
	// Self is the certified identity: the joiner's ID at its (possibly
	// CA-allocated) address.
	Self chord.Peer
	// Cert is the issued certificate.
	Cert xcrypto.Certificate
	// CAKey is the CA's public key (verifies Cert and future announces).
	CAKey xcrypto.PublicKey
	// Roster is the directory snapshot (WantRoster only).
	Roster []RosterEntry
	// Endpoints is the slot-indexed endpoint table including the joiner
	// (WantRoster only, socket deployments only).
	Endpoints []string
	// SlotSeqs is the slot-indexed table of the highest admission
	// ordinal per slot (0 = static slot, never dynamically granted),
	// aligned with Endpoints. The joiner seeds its replay protection
	// from it, so a captured announce for a slot's previous occupant
	// cannot rebind the slot even in a process that never saw the newer
	// announce.
	SlotSeqs []uint64
}

// EndpointAnnounce is broadcast by the CA when it admits a joiner: one
// one-way message per known process, carrying the joiner's certificate and
// endpoint so every process can extend its directory and address table
// before the joiner's traffic arrives.
type EndpointAnnounce struct {
	Who      chord.Peer
	Endpoint string
	Cert     xcrypto.Certificate
	// Seq is the CA's monotonically increasing admission ordinal,
	// covered by Sig. Receivers track the highest sequence seen per
	// address slot and ignore lower ones, so a captured announce for a
	// RETIRED identity cannot be replayed to rebind its reused slot.
	Seq uint64
	// Sig is the CA's attestation over (Seq, Who, Endpoint) — see
	// attestedEndpoint. The certificate's own signature does not cover
	// the endpoint string, so without this a replayed announce could
	// rebind a live slot to an attacker-chosen endpoint.
	Sig []byte
}

// RingAdmitReq is the bootstrap-channel admission request: what a slotless
// `octopusd -join` process sends (nettransport.ClientConn) to any daemon
// of a live deployment. The daemon relays it to the CA as a CertIssueReq
// and returns the grant together with the deployment pointers the joiner
// cannot know yet.
type RingAdmitReq struct {
	ID       id.ID
	Key      xcrypto.PublicKey
	Endpoint string
}

// RingAdmitResp answers a RingAdmitReq.
type RingAdmitResp struct {
	OK bool
	// Grant is the CA's CertIssueResp (certificate, roster, endpoint
	// table).
	Grant CertIssueResp
	// CAAddr is the CA's address slot.
	CAAddr transport.Addr
	// Bootstrap is a live ring member the joiner should join through.
	Bootstrap chord.Peer
}

// CertRetireReq tells the CA a certified joiner is departing for good: the
// CA drops the grant from its re-announce set, releases the endpoint's
// admission quota, and REVOKES the identity — retirement is terminal,
// because the slot becomes reusable and a still-valid certificate binding
// a recycled slot must never re-enter the ring. Authority is proof of key
// possession: Sig is the identity's own signature over
// RetireStatement(Who) — frame-header origins are forgeable on a socket
// transport, signatures are not.
type CertRetireReq struct {
	Who chord.Peer
	Sig []byte
}

// CertRetireResp acknowledges a retirement.
type CertRetireResp struct {
	OK bool
}

// RevocationAnnounce is broadcast by the CA when it revokes an identity,
// so every process's directory learns the revocation — without it, the
// join-admission revocation check would only bite in the CA's own process
// (certificates never expire, so a revoked node's certificate still
// verifies everywhere else).
type RevocationAnnounce struct {
	Node id.ID
	// Sig is the CA's attestation over the revocation statement.
	Sig []byte
}

// Wire type codes of the core half of the membership registry (0x03xx).
const (
	wireCertIssueReq       = 0x0310
	wireCertIssueResp      = 0x0311
	wireEndpointAnnounce   = 0x0312
	wireRingAdmitReq       = 0x0313
	wireRingAdmitResp      = 0x0314
	wireCertRetireReq      = 0x0315
	wireCertRetireResp     = 0x0316
	wireRevocationAnnounce = 0x0317
)

func init() {
	transport.Register(CertIssueReq{}, CertIssueResp{}, EndpointAnnounce{}, RingAdmitReq{},
		RingAdmitResp{}, CertRetireReq{}, CertRetireResp{}, RevocationAnnounce{})
}

// WireType implements transport.Wire.
func (CertIssueReq) WireType() uint16 { return wireCertIssueReq }

// Code implements transport.Wire.
func (m CertIssueReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.ID)
	c.Addr(&m.Addr)
	c.Bytes16((*[]byte)(&m.Key))
	c.String16(&m.Endpoint)
	c.Bool(&m.WantRoster)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (CertIssueResp) WireType() uint16 { return wireCertIssueResp }

// Code implements transport.Wire. The list bounds are the smallest
// encodings of a roster entry (identifier, key length), an endpoint (its
// length) and a slot ordinal.
func (m CertIssueResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	chord.CodePeer(c, &m.Self)
	xcrypto.CodeCertificate(c, &m.Cert)
	c.Bytes16((*[]byte)(&m.CAKey))
	transport.List(c, &m.Roster, 8+2, func(c *transport.Codec, e *RosterEntry) {
		c.ID(&e.ID)
		c.Bytes16((*[]byte)(&e.Key))
	})
	transport.List(c, &m.Endpoints, 2, (*transport.Codec).String16)
	transport.List(c, &m.SlotSeqs, 8, (*transport.Codec).U64)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (RingAdmitReq) WireType() uint16 { return wireRingAdmitReq }

// Code implements transport.Wire.
func (m RingAdmitReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.ID)
	c.Bytes16((*[]byte)(&m.Key))
	c.String16(&m.Endpoint)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (RingAdmitResp) WireType() uint16 { return wireRingAdmitResp }

// Code implements transport.Wire. The grant travels as a nested frame,
// which must hold a CertIssueResp.
func (m RingAdmitResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	c.Addr(&m.CAAddr)
	chord.CodePeer(c, &m.Bootstrap)
	var grant transport.Message = m.Grant
	c.Nested(&grant)
	g, ok := grant.(CertIssueResp)
	if !ok {
		c.Fail()
	}
	m.Grant = g
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (CertRetireReq) WireType() uint16 { return wireCertRetireReq }

// Code implements transport.Wire.
func (m CertRetireReq) Code(c *transport.Codec) transport.Wire {
	chord.CodePeer(c, &m.Who)
	c.Bytes16(&m.Sig)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (CertRetireResp) WireType() uint16 { return wireCertRetireResp }

// Code implements transport.Wire.
func (m CertRetireResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (RevocationAnnounce) WireType() uint16 { return wireRevocationAnnounce }

// Code implements transport.Wire.
func (m RevocationAnnounce) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.Node)
	c.Bytes16(&m.Sig)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (EndpointAnnounce) WireType() uint16 { return wireEndpointAnnounce }

// Code implements transport.Wire.
func (m EndpointAnnounce) Code(c *transport.Codec) transport.Wire {
	chord.CodePeer(c, &m.Who)
	c.String16(&m.Endpoint)
	xcrypto.CodeCertificate(c, &m.Cert)
	c.U64(&m.Seq)
	c.Bytes16(&m.Sig)
	return transport.Decoded(c, &m)
}

// EndpointRegistry is the optional transport capability dynamic membership
// needs on socket backends: a growable address-slot → endpoint table.
// nettransport implements it; the in-process transports (fixed slot
// tables) do not, and the membership code degrades gracefully without it.
type EndpointRegistry interface {
	// SetEndpoint installs (or extends the table to hold) the endpoint
	// of an address slot.
	SetEndpoint(addr transport.Addr, endpoint string)
	// AddEndpoint appends a fresh slot for the endpoint and returns it.
	AddEndpoint(endpoint string) transport.Addr
	// Endpoints returns a copy of the slot-indexed endpoint table.
	Endpoints() []string
}

// Attestation statement tags: the leading byte of every attested statement
// names its kind, so a signature over one statement type can never be
// replayed as another.
const (
	attestEndpoint   = 0x01
	attestRevocation = 0x02
	attestRetire     = 0x03
)

// RetireStatement is the canonical byte statement a CertRetireReq
// signature covers, signed with the retiring identity's OWN key.
func RetireStatement(who chord.Peer) []byte {
	c, tag := &transport.Codec{}, uint8(attestRetire)
	c.U8(&tag)
	chord.CodePeer(c, &who)
	return c.Bytes()
}

// attestedEndpoint is the canonical byte statement the CA's endpoint
// attestation signs: the admission ordinal, the announced identity,
// address, and endpoint. The identity certificate's signature does not
// cover the endpoint string, so without this a replayed announce could
// rebind a live slot to an attacker's endpoint; the ordinal keeps genuine
// OLD announces from rebinding a retired identity's reused slot.
func attestedEndpoint(seq uint64, who chord.Peer, endpoint string) []byte {
	c, tag := &transport.Codec{}, uint8(attestEndpoint)
	c.U8(&tag)
	c.U64(&seq)
	chord.CodePeer(c, &who)
	c.String16(&endpoint)
	return c.Bytes()
}

// attestedRevocation is the canonical byte statement behind a
// RevocationAnnounce signature.
func attestedRevocation(node id.ID) []byte {
	c, tag := &transport.Codec{}, uint8(attestRevocation)
	c.U8(&tag)
	c.ID(&node)
	return c.Bytes()
}

// handleCertIssue is the CA's online admission path: validate the request,
// bind the identity with a certificate, register it in the directory, and
// announce it to the deployment. Re-requests for an already-granted
// (identity, key) pair return the identical grant — a joiner whose
// response frame was lost must be able to retry without burning its
// identity.
func (ca *CA) handleCertIssue(from transport.Addr, m CertIssueReq) (transport.Message, bool) {
	refuse := func() (transport.Message, bool) {
		ca.stats.JoinsRefused++
		return CertIssueResp{}, true
	}
	if len(m.Key) == 0 || m.ID == 0 {
		return refuse()
	}
	// A revoked identity stays out (§4.6).
	if ca.auth.Revoked(m.ID) {
		return refuse()
	}
	if g, ok := ca.granted[m.ID]; ok {
		// One certificate per identity, ever. The identical (key,
		// address) asking again is a retry and gets the same grant;
		// anything else is an identity-takeover attempt.
		if !bytes.Equal(g.cert.Key, m.Key) || (m.Addr.Valid() && int64(m.Addr) != g.cert.Addr) {
			return refuse()
		}
		return ca.grantResp(g, m.WantRoster), true
	}
	if _, known := ca.auth.IssuedAt(m.ID); known {
		// Certified at build time (or by another path): a join request
		// for it is a takeover attempt, not a retry.
		return refuse()
	}
	if ca.AdmitPolicy != nil && !ca.AdmitPolicy(from, m) {
		return refuse()
	}
	addr := m.Addr
	if addr.Valid() {
		// Proposed addresses are an in-process-only privilege (the
		// rejoin path, which reuses the slot it calls from, on
		// transports that cannot forge `from`). On socket deployments
		// — recognizable by the presence of an allocator — the frame
		// header's `from` is writable by any TCP client, so proposals
		// are refused outright and slots come only from AllocAddr.
		if ca.AllocAddr != nil || from != addr {
			return refuse()
		}
	} else {
		if ca.AllocAddr == nil {
			return refuse()
		}
		a, ok := ca.AllocAddr(m.Endpoint)
		if !ok {
			return refuse()
		}
		addr = a
	}
	if addr == ca.addr {
		return refuse()
	}
	// Non-expiring, like every certificate in the system (§4.6):
	// certificates are independent of routing state and never re-issued.
	// (An expiry would also need a cross-process clock, which the
	// transports do not share.)
	cert, err := ca.auth.Issue(m.ID, int64(addr), m.Key, 0)
	if err != nil {
		return refuse()
	}
	who := chord.Peer{ID: m.ID, Addr: addr}
	ca.grantSeq++
	sig, err := ca.auth.Attest(attestedEndpoint(ca.grantSeq, who, m.Endpoint))
	if err != nil {
		return refuse()
	}
	ca.dir.Register(m.ID, m.Key)
	// The CA's own process never receives the broadcast (it skips
	// itself), so its replay protection advances here, at issuance.
	ca.dir.AdvanceSlotSeq(addr, ca.grantSeq)
	g := grant{cert: cert, endpoint: m.Endpoint, seq: ca.grantSeq, sig: sig, at: ca.tr.Now()}
	ca.granted[m.ID] = g
	ca.stats.JoinsAdmitted++
	if ca.Announce != nil {
		ca.Announce(g.announce())
	}
	return ca.grantResp(g, m.WantRoster), true
}

// reannounceWindow bounds how long after issuance a grant keeps being
// re-broadcast. Announces are unacknowledged one-way messages, so a
// process whose link was down when a joiner was admitted needs a second
// chance — but re-broadcasting every historical grant forever would be
// unbounded background traffic on a long-lived ring. A few minutes covers
// any realistic outage window (dial backoff, process restart); a process
// partitioned longer than this re-learns reachability only for nodes that
// matter to it through ordinary routing once the operator intervenes.
const reannounceWindow = 5 * time.Minute

// ReAnnounce re-broadcasts recently issued grants (through the Announce
// hook) and recent revocations (through AnnounceRevocation); see
// reannounceWindow. Receivers treat both idempotently. Must run in the
// CA's serialization context (octopusd schedules it with tr.Every on the
// CA's address).
func (ca *CA) ReAnnounce() {
	cutoff := ca.tr.Now() - reannounceWindow
	if ca.Announce != nil {
		for _, g := range ca.granted {
			if g.at < cutoff {
				continue
			}
			ca.Announce(g.announce())
		}
	}
	// Prune expired revocation records while sweeping: they can never be
	// broadcast again, and the slice would otherwise grow for the CA's
	// lifetime.
	kept := ca.revocations[:0]
	for _, r := range ca.revocations {
		if r.at < cutoff {
			continue
		}
		kept = append(kept, r)
		if ca.AnnounceRevocation != nil {
			ca.AnnounceRevocation(RevocationAnnounce{Node: r.node, Sig: r.sig})
		}
	}
	ca.revocations = kept
}

// propagateRevocation voids an identity everywhere: the PKI primitive, the
// local directory (join admission), and — via the broadcast + re-announce
// machinery — every other process's directory.
func (ca *CA) propagateRevocation(node id.ID) {
	ca.auth.Revoke(node)
	ca.dir.Revoke(node)
	if sig, err := ca.auth.Attest(attestedRevocation(node)); err == nil {
		ca.revocations = append(ca.revocations, revocation{node: node, sig: sig, at: ca.tr.Now()})
		if ca.AnnounceRevocation != nil {
			ca.AnnounceRevocation(RevocationAnnounce{Node: node, Sig: sig})
		}
	}
}

// handleRetire releases a departing joiner's admission state. Authority is
// the identity's own key: frame-header origins can be forged by any TCP
// client, signatures cannot. Only online grants are retirable.
//
// Retirement is TERMINAL: the identity is revoked, not merely forgotten.
// Its slot becomes reusable, and a still-valid certificate binding a
// recycled slot must never re-enter through JoinReq — two identities would
// alias one slot with misrouted traffic. A returning operator simply mints
// a fresh identity (the daemon's default on every start).
func (ca *CA) handleRetire(_ transport.Addr, m CertRetireReq) (transport.Message, bool) {
	g, ok := ca.granted[m.Who.ID]
	if !ok || int64(m.Who.Addr) != g.cert.Addr ||
		!ca.dir.Scheme().Verify(g.cert.Key, RetireStatement(m.Who), m.Sig) {
		return CertRetireResp{}, true
	}
	delete(ca.granted, m.Who.ID)
	ca.propagateRevocation(m.Who.ID)
	if ca.OnRetire != nil {
		ca.OnRetire(g.endpoint, m.Who.Addr)
	}
	return CertRetireResp{OK: true}, true
}

// handleRevocation processes a CA revocation broadcast on a node: verify
// the attestation, then mirror the revocation into the local directory so
// join admission refuses the revoked identity in THIS process too.
func (n *Node) handleRevocation(m RevocationAnnounce) {
	caKey := n.dir.CAKey()
	if len(caKey) == 0 ||
		!n.dir.Scheme().Verify(caKey, attestedRevocation(m.Node), m.Sig) {
		return
	}
	n.stats.Revocations.Add(1)
	n.dir.Revoke(m.Node)
	// The evicted identity may be a cached owner or live in cached
	// successor-list evidence.
	n.flushLookupCache()
	if n.onehop != nil {
		n.onehop.noteLeave(m.Node)
	}
}

// grantResp assembles the admission response for a (possibly re-issued)
// grant.
func (ca *CA) grantResp(g grant, wantRoster bool) CertIssueResp {
	resp := CertIssueResp{
		OK:    true,
		Self:  chord.Peer{ID: g.cert.Node, Addr: transport.Addr(g.cert.Addr)},
		Cert:  g.cert,
		CAKey: ca.auth.PublicKey(),
	}
	if wantRoster {
		resp.Roster = ca.dir.Snapshot()
		if reg, ok := ca.tr.(EndpointRegistry); ok {
			resp.Endpoints = reg.Endpoints()
			// Per-slot admission ordinals seed the joiner's replay
			// protection (a fresh process has no announce history).
			// The directory — not ca.granted — is the source, so
			// RETIRED occupants' ordinals are included too.
			resp.SlotSeqs = make([]uint64, len(resp.Endpoints))
			for slot := range resp.SlotSeqs {
				resp.SlotSeqs[slot] = ca.dir.SlotSeq(transport.Addr(slot))
			}
		}
	}
	return resp
}

// admitJoin is the node-side admission check installed as the chord layer's
// AdmitJoin hook: the joiner's certificate must verify against the CA key
// and bind exactly the identity that is asking to join. On success the
// joiner's public key enters the local directory, so its signed tables
// verify from the first stabilization round.
func (n *Node) admitJoin(m chord.JoinReq) bool {
	if !n.vetJoin(m) {
		n.stats.JoinsRejected.Add(1)
		return false
	}
	n.stats.JoinsAdmitted.Add(1)
	n.dir.Register(m.Cert.Node, m.Cert.Key)
	// The admitting predecessor is the first to learn a join that has no
	// CA broadcast behind it (simulated churn): feed it into the one-hop
	// tier so EDRA spreads it.
	if n.onehop != nil {
		n.onehop.noteJoin(m.Who)
	}
	return true
}

// vetJoin holds admitJoin's checks; admitJoin wraps it with the membership
// event counters and the directory registration.
func (n *Node) vetJoin(m chord.JoinReq) bool {
	c := m.Cert
	if c.Node != m.Who.ID || c.Addr != int64(m.Who.Addr) {
		return false
	}
	// Certificates never expire (§4.6), so revocation must bite HERE:
	// a revoked node's certificate still verifies, and without this
	// check it could simply re-join the ring.
	if n.dir.Revoked(c.Node) {
		return false
	}
	if !n.dir.VerifyCert(c) {
		return false
	}
	if c.Expiry != 0 && n.tr.Now() > c.Expiry {
		return false
	}
	return true
}

// vetLeave is the node-side leave check installed as the chord layer's
// VetLeave hook: a departure notice must be signed by the departing
// identity's own key. Without it, any TCP client could forge
// LeaveReq{Who: victim} to the victim's neighbors — an eviction primitive.
func (n *Node) vetLeave(m chord.LeaveReq) bool {
	key, ok := n.dir.Key(m.Who.ID)
	if !ok {
		return false
	}
	if !n.dir.Scheme().Verify(key, chord.LeaveStatement(m.Who), m.Sig) {
		return false
	}
	n.stats.Leaves.Add(1)
	// A verified leave is a one-hop membership event too.
	if n.onehop != nil {
		n.onehop.noteLeave(m.Who.ID)
	}
	return true
}

// handleAnnounce processes an EndpointAnnounce: verify the certificate AND
// the CA's endpoint attestation, register the joiner's key, and teach the
// transport the new slot's endpoint when the backend supports dynamic
// tables. Both signatures are required — the certificate authenticates the
// identity binding, the attestation authenticates the endpoint the
// certificate does not cover.
func (n *Node) handleAnnounce(m EndpointAnnounce) {
	c := m.Cert
	if c.Node != m.Who.ID || c.Addr != int64(m.Who.Addr) || !n.dir.VerifyCert(c) {
		return
	}
	caKey := n.dir.CAKey()
	if len(caKey) == 0 ||
		!n.dir.Scheme().Verify(caKey, attestedEndpoint(m.Seq, m.Who, m.Endpoint), m.Sig) {
		return
	}
	// Ordinal check LAST: only a fully verified announce may advance the
	// slot's sequence. A replayed announce for the slot's previous
	// occupant carries a lower ordinal and is ignored.
	if !n.dir.AdvanceSlotSeq(m.Who.Addr, m.Seq) {
		return
	}
	n.dir.Register(c.Node, c.Key)
	if m.Endpoint != "" {
		if reg, ok := n.tr.(EndpointRegistry); ok {
			reg.SetEndpoint(m.Who.Addr, m.Endpoint)
		}
	}
	n.stats.Announces.Add(1)
	// A verified announce means membership shifted: a joiner may now own
	// keys that cached lookups still attribute to its successor.
	n.flushLookupCache()
	if n.onehop != nil {
		n.onehop.noteJoin(m.Who)
	}
}

// NewAdmissionRelay returns the bootstrap-request handler an octopusd
// process installs (nettransport.SetBootstrapHandler): it relays a
// slotless joiner's RingAdmitReq to the CA over the ring transport —
// calling from `caller`, a slot this process serves — and packages the
// grant with the CA's address and a live bootstrap peer. The handler runs
// on a connection read goroutine and blocks for at most timeout.
func NewAdmissionRelay(tr transport.Transport, caller, caAddr transport.Addr,
	bootstrap chord.Peer, timeout time.Duration) func(string, transport.Message) (transport.Message, bool) {
	return func(_ string, req transport.Message) (transport.Message, bool) {
		m, ok := req.(RingAdmitReq)
		if !ok {
			return nil, false
		}
		issue := CertIssueReq{
			ID:         m.ID,
			Addr:       transport.NoAddr, // the CA allocates the slot
			Key:        m.Key,
			Endpoint:   m.Endpoint,
			WantRoster: true,
		}
		type outcome struct {
			grant CertIssueResp
			err   error
		}
		out, ok := transport.Await(tr, caller, timeout+timeout/2, func(done func(outcome)) {
			tr.Call(caller, caAddr, issue, timeout, func(resp transport.Message, err error) {
				r, _ := resp.(CertIssueResp)
				done(outcome{grant: r, err: err})
			})
		})
		if !ok || out.err != nil {
			// Transient: the CA was unreachable from the relay. Stay
			// silent so the joiner observes a bootstrap timeout and
			// RETRIES — a RingAdmitResp{OK:false} means a real refusal
			// and stops the retry loop.
			return nil, false
		}
		if !out.grant.OK {
			return RingAdmitResp{}, true
		}
		return RingAdmitResp{OK: true, Grant: out.grant, CAAddr: caAddr, Bootstrap: bootstrap}, true
	}
}

// Leave departs the ring gracefully: the Octopus timers stop first (no new
// walks or surveillance probes), then the chord layer runs the LeaveReq
// handshake with both neighbors and shuts the node down. done reports
// whether the neighbors acknowledged.
func (n *Node) Leave(done func(error)) {
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	n.flushLookupCache()
	n.Chord.Leave(done)
}

// Rejoin replaces the node at an address slot with a fresh identity
// admitted ONLINE: the replacement mints a key pair, obtains its
// certificate from the CA over the wire (CertIssueReq), and enters the ring
// through the JoinReq handshake via the given bootstrap — the same code
// path an `octopusd -join` process takes, which is what makes simulated
// churn and real churn exercise identical logic. onJoined fires exactly
// once with the running node or the failure.
func (nw *Network) Rejoin(addr transport.Addr, bootstrap chord.Peer, cfg Config,
	onJoined func(*Node, error)) {
	rng := nw.Net.Rand()
	kp, err := nw.Dir.Scheme().GenerateKey(rng)
	if err != nil {
		onJoined(nil, err)
		return
	}
	self := chord.Peer{ID: id.ID(rng.Uint64()), Addr: addr}

	cn := chord.NewNode(nw.Net, cfg.Chord, self, nil)
	node := New(cn, cfg, nw.CA.Addr(), nw.Dir)
	cn.Start()

	fail := func(err error) {
		cn.Stop()
		onJoined(nil, err)
	}
	req := CertIssueReq{ID: self.ID, Addr: addr, Key: kp.Public}
	nw.Net.Call(addr, nw.CA.Addr(), req, cfg.Chord.RPCTimeout,
		func(resp transport.Message, err error) {
			if err != nil {
				fail(err)
				return
			}
			r, ok := resp.(CertIssueResp)
			if !ok || !r.OK {
				fail(ErrAdmissionRefused)
				return
			}
			cn.SetIdentity(&chord.Identity{
				Scheme: nw.Dir.Scheme(),
				Key:    kp,
				Cert:   r.Cert,
			})
			cn.Join(bootstrap, func(err error) {
				if err != nil {
					fail(err)
					return
				}
				node.StartProtocols()
				nw.Ring.Replace(addr, cn)
				if int(addr) < len(nw.Nodes) {
					nw.Nodes[addr] = node
				}
				onJoined(node, nil)
			})
		})
}
