package core

import (
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Anonymous-path messages. The onion layers are modelled structurally: a
// RelayForward is the already-peeled view of the current hop — it exposes
// exactly the fields the corresponding onion layer would decrypt to (next
// hop, or the exit action), and nothing about earlier hops. Adversarial
// code receives the same views an on-the-wire attacker would; the wire
// codec (codec.go) additionally reserves the per-layer AES-CTR IV bytes the
// real onion construction (internal/xcrypto) carries, so the serialized
// size matches a genuinely onion-encrypted message.
//
// Every message implements transport.Wire; Size() is derived from the real
// encoding via transport.EncodedSize.

// RelayForward carries a query one hop along an anonymous path.
type RelayForward struct {
	// QID identifies the query on the reverse path.
	QID uint64
	// Next is the address this relay must forward Inner to. Unset when
	// Exit is set.
	Next transport.Addr
	// Inner is the peeled onion for the next relay.
	Inner *RelayForward
	// Exit, when non-nil, marks this relay as the exit: it performs the
	// query against Target and routes the answer backwards.
	Exit *ExitAction
	// Local, when non-nil, makes this relay the final recipient: it
	// processes the request itself (e.g. a phase-2 walk seed) and
	// eventually answers through the reverse path.
	Local transport.Message
	// Delay is an artificial pause this relay must add before
	// forwarding; the initiator sets it on relay B's layer to defeat
	// end-to-end timing analysis (§4.7).
	Delay time.Duration
	// Depth is the remaining onion depth.
	Depth int
}

// ExitAction is the innermost onion layer: the actual query.
type ExitAction struct {
	Target transport.Addr
	Req    transport.Message
}

// RelayReply carries a query answer one hop back toward the initiator. Each
// relay forwards it to the predecessor it recorded for QID.
type RelayReply struct {
	QID uint64
	// Resp is the queried node's answer (typically a signed routing
	// table).
	Resp transport.Message
	// Failed marks a query the exit could not complete.
	Failed bool
	// Depth is the number of reply onion layers.
	Depth int
}

// WalkSeedReq delivers the phase-2 random seed to U_l, the last node of
// phase 1 (Appendix I). U_l performs the second phase, collecting signed
// fingertables, and returns them for verification.
type WalkSeedReq struct {
	WalkID uint64
	Seed   int64
	Hops   int
}

// WalkSeedResp returns every fingertable U_l collected in phase 2, each
// signed by its owner, so the initiator can re-derive the seed-driven
// choices and verify U_l walked honestly.
type WalkSeedResp struct {
	WalkID uint64
	Tables []chord.RoutingTable
	OK     bool
}

// Receipt acknowledges delivery of a relayed message (Appendix II). It is
// signed by the issuer so it can serve as evidence before the CA.
type Receipt struct {
	QID    uint64
	Issuer chord.Peer
	Sig    []byte
}

// WitnessReq asks a witness (a successor/predecessor of the requester) to
// independently deliver a message to a suspected dropper's next hop and
// collect a receipt or a failure statement (Appendix II).
type WitnessReq struct {
	QID     uint64
	Deliver transport.Addr
	Payload *RelayForward
}

// WitnessResp returns the witness's receipt or signed failure statement.
type WitnessResp struct {
	QID       uint64
	Delivered bool
	Statement []byte // witness signature over the outcome
	Witness   chord.Peer
}

// --- CA protocol messages (§4.6, Fig. 2) ---

// ReportKind enumerates the attack classes surveillance can report.
type ReportKind int

// Report kinds.
const (
	// ReportNeighborOmission accuses a node of serving a successor list
	// that omits a live node it must contain (lookup bias / pollution,
	// §4.3).
	ReportNeighborOmission ReportKind = iota + 1
	// ReportFingerManipulation accuses a table owner of pointing a
	// finger at a node farther than a live, closer candidate (§4.4).
	ReportFingerManipulation
	// ReportFingerPollution accuses the final intermediate of a
	// finger-update lookup of returning a biased owner (§4.5).
	ReportFingerPollution
	// ReportSelectiveDrop accuses a relay of dropping anonymous-path
	// traffic (Appendix II).
	ReportSelectiveDrop
)

// ReportMsg is a surveillance report submitted to the CA.
type ReportMsg struct {
	Kind ReportKind
	// Accused is the node the evidence incriminates.
	Accused chord.Peer
	// Missing is the live node omitted from the accused's list
	// (omission reports).
	Missing chord.Peer
	// IdealID is the ideal finger position (finger reports).
	IdealID id.ID
	// ClaimedFinger is F', the suspicious finger value (finger reports).
	ClaimedFinger chord.Peer
	// Evidence carries the signed tables backing the accusation.
	Evidence []chord.RoutingTable
	// Relays lists the anonymous-path relays of a dropped query
	// (selective-DoS reports).
	Relays []chord.Peer
	// QID identifies the dropped query so the CA can collect receipts.
	QID uint64
	// HasHeadReceipt reports whether the initiator holds the first
	// relay's receipt (selective-DoS reports); without it the chain
	// cannot be adjudicated.
	HasHeadReceipt bool
}

// ProofReq is the CA asking a node for its pollution proofs: the most
// recent signed successor lists it received during stabilization, or — in
// selective-DoS investigations — the receipts and witness statements for a
// specific query.
type ProofReq struct {
	// Missing directs the node to include proofs relevant to this ID.
	Missing chord.Peer
	// QID, when nonzero, requests the receipts/statements for a query.
	QID uint64
	// FingerClaim, when valid, asks for the provenance of the finger
	// pointing at this peer: the signed table that vouched for it during
	// the secured finger update (§4.5).
	FingerClaim chord.Peer
}

// ProofResp carries the node's current signed successor list plus its proof
// queue.
type ProofResp struct {
	Own    chord.RoutingTable
	Proofs []chord.RoutingTable
	// Provenance is the signed table that vouched for a questioned
	// finger (see ProofReq.FingerClaim).
	Provenance    chord.RoutingTable
	HasProvenance bool
	// Receipts answer selective-DoS investigations.
	Receipts []Receipt
	// Statements carries witness failure statements.
	Statements []WitnessResp
}

// ReportAck acknowledges a report.
type ReportAck struct{}

// Size implements transport.Message: the length of the real encoding.
func (m RelayForward) Size() int       { return transport.EncodedSize(m) }
func (m RelayReply) Size() int         { return transport.EncodedSize(m) }
func (m WalkSeedReq) Size() int        { return transport.EncodedSize(m) }
func (m WalkSeedResp) Size() int       { return transport.EncodedSize(m) }
func (m Receipt) Size() int            { return transport.EncodedSize(m) }
func (m WitnessReq) Size() int         { return transport.EncodedSize(m) }
func (m WitnessResp) Size() int        { return transport.EncodedSize(m) }
func (m ReportMsg) Size() int          { return transport.EncodedSize(m) }
func (m ProofReq) Size() int           { return transport.EncodedSize(m) }
func (m ProofResp) Size() int          { return transport.EncodedSize(m) }
func (m ReportAck) Size() int          { return transport.EncodedSize(m) }
func (m CertIssueReq) Size() int       { return transport.EncodedSize(m) }
func (m CertIssueResp) Size() int      { return transport.EncodedSize(m) }
func (m EndpointAnnounce) Size() int   { return transport.EncodedSize(m) }
func (m RingAdmitReq) Size() int       { return transport.EncodedSize(m) }
func (m RingAdmitResp) Size() int      { return transport.EncodedSize(m) }
func (m CertRetireReq) Size() int      { return transport.EncodedSize(m) }
func (m CertRetireResp) Size() int     { return transport.EncodedSize(m) }
func (m RevocationAnnounce) Size() int { return transport.EncodedSize(m) }
func (m TierEventNotify) Size() int    { return transport.EncodedSize(m) }
func (m TierSyncReq) Size() int        { return transport.EncodedSize(m) }
func (m TierSyncResp) Size() int       { return transport.EncodedSize(m) }
func (m ClientLookupReq) Size() int    { return transport.EncodedSize(m) }
func (m ClientLookupResp) Size() int   { return transport.EncodedSize(m) }
