package chord

import (
	"errors"
	"fmt"
	"slices"

	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Dynamic membership: the wire protocol (the 0x03xx registry) and node-side
// state machines for joining a live ring, departing gracefully, and
// suspecting failed neighbors. Octopus assumes a Chord substrate that nodes
// enter with CA-certified identities (§3.2) and that survives churn; this
// file is that substrate's online half. The certificate issuance endpoint
// itself lives one layer up (internal/core): the routing layer only carries
// certificates and exposes an admission hook, so plain Chord rings (the
// baselines) can run the same join/leave machinery unsigned.

// Membership errors.
var (
	// ErrJoinRefused means the prospective successor rejected the join
	// (failed admission: bad certificate, revoked identity, or identifier
	// collision).
	ErrJoinRefused = errors.New("chord: join refused by successor")
	// ErrLeaveTimeout means a departing node's neighbors never
	// acknowledged its leave notice; the departure completes anyway (the
	// neighbors will repair via stabilization), but callers may want to
	// log it.
	ErrLeaveTimeout = errors.New("chord: leave notice not acknowledged")
)

// JoinReq asks the receiver — the sender's successor-to-be, found by a
// lookup of the sender's own identifier — to admit the sender into the ring
// as its predecessor. Cert is the joiner's CA-issued identity certificate;
// rings running with admission control (Octopus) verify it before answering.
type JoinReq struct {
	Who  Peer
	Cert xcrypto.Certificate
}

// Size implements transport.Message.
func (m JoinReq) Size() int { return transport.EncodedSize(m) }

// JoinResp answers a JoinReq. On OK the responder has installed the joiner
// as its first predecessor and returns the neighbor state the joiner needs
// to participate immediately: the responder's successor list (the joiner's
// own list is [responder] + that list) and the responder's former
// predecessors (the joiner sits immediately before the responder, so it
// inherits them).
type JoinResp struct {
	OK           bool
	Successors   []Peer
	Predecessors []Peer
}

// Size implements transport.Message.
func (m JoinResp) Size() int { return transport.EncodedSize(m) }

// LeaveReq is a graceful departure notice. The departing node sends it to
// its first predecessor and first successor; each receiver splices the
// carried neighbor lists into its own so routing heals immediately instead
// of waiting for a stabilization timeout.
type LeaveReq struct {
	Who Peer
	// Successors is the departing node's successor list — the
	// predecessor splices it in place of the departed entry.
	Successors []Peer
	// Predecessors is the departing node's predecessor list — the
	// successor splices it in.
	Predecessors []Peer
	// Sig is the departing identity's own signature over
	// LeaveStatement(Who): on a socket transport frame origins are
	// forgeable, and an unauthenticated leave would be an eviction
	// primitive (forge LeaveReq{Who: victim} to the victim's
	// neighbors). Rings with admission control verify it (the VetLeave
	// hook); unsigned baselines ignore it.
	Sig []byte
}

// LeaveStatement is the canonical byte statement a LeaveReq signature
// covers. The leading tag byte (0x04) keeps it disjoint from every other
// signed statement in the system (routing tables, and the 0x01–0x03
// CA/retire attestations in internal/core).
func LeaveStatement(who Peer) []byte {
	c, tag := &transport.Codec{}, uint8(0x04)
	c.U8(&tag)
	CodePeer(c, &who)
	return c.Bytes()
}

// Size implements transport.Message.
func (m LeaveReq) Size() int { return transport.EncodedSize(m) }

// LeaveResp acknowledges a leave notice.
type LeaveResp struct {
	OK bool
}

// Size implements transport.Message.
func (m LeaveResp) Size() int { return transport.EncodedSize(m) }

// SuspectReq is the failure-suspicion probe: an identity-echoing ping.
// Unlike PingReq, the response names the responder, so a prober can detect
// a replacement node answering at a dead neighbor's address after churn.
type SuspectReq struct{}

// Size implements transport.Message.
func (m SuspectReq) Size() int { return transport.EncodedSize(m) }

// SuspectResp answers a suspicion probe with the responder's identity.
type SuspectResp struct {
	Who Peer
}

// Size implements transport.Message.
func (m SuspectResp) Size() int { return transport.EncodedSize(m) }

// Wire type codes of the membership registry (0x03xx block). The CA-side
// admission messages (certificate issuance, endpoint announcement) extend
// the same block from internal/core (0x0310+).
const (
	wireJoinReq     = 0x0301
	wireJoinResp    = 0x0302
	wireLeaveReq    = 0x0303
	wireLeaveResp   = 0x0304
	wireSuspectReq  = 0x0305
	wireSuspectResp = 0x0306
)

func init() {
	transport.Register(JoinReq{}, JoinResp{}, LeaveReq{}, LeaveResp{}, SuspectReq{}, SuspectResp{})
}

// WireType implements transport.Wire.
func (JoinReq) WireType() uint16 { return wireJoinReq }

// Code implements transport.Wire.
func (m JoinReq) Code(c *transport.Codec) transport.Wire {
	CodePeer(c, &m.Who)
	xcrypto.CodeCertificate(c, &m.Cert)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (JoinResp) WireType() uint16 { return wireJoinResp }

// Code implements transport.Wire.
func (m JoinResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	CodePeers(c, &m.Successors)
	CodePeers(c, &m.Predecessors)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (LeaveReq) WireType() uint16 { return wireLeaveReq }

// Code implements transport.Wire.
func (m LeaveReq) Code(c *transport.Codec) transport.Wire {
	CodePeer(c, &m.Who)
	CodePeers(c, &m.Successors)
	CodePeers(c, &m.Predecessors)
	c.Bytes16(&m.Sig)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (LeaveResp) WireType() uint16 { return wireLeaveResp }

// Code implements transport.Wire.
func (m LeaveResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (SuspectReq) WireType() uint16 { return wireSuspectReq }

// Code implements transport.Wire.
func (m SuspectReq) Code(c *transport.Codec) transport.Wire { return transport.Decoded(c, &m) }

// WireType implements transport.Wire.
func (SuspectResp) WireType() uint16 { return wireSuspectResp }

// Code implements transport.Wire.
func (m SuspectResp) Code(c *transport.Codec) transport.Wire {
	CodePeer(c, &m.Who)
	return transport.Decoded(c, &m)
}

// --- Node-side membership handling ---

// SetIdentity installs (or replaces) the node's identity. Dynamic joiners
// are created before their certificate exists — the key pair is minted
// locally, the certificate arrives from the CA over the wire — so identity
// installation is a separate step from construction.
func (n *Node) SetIdentity(ident *Identity) { n.ident = ident }

// handleJoin admits a prospective predecessor. Admission control is
// delegated to the AdmitJoin hook (Octopus verifies the carried certificate
// against the CA key there); the routing layer itself only enforces
// structural sanity.
func (n *Node) handleJoin(m JoinReq) JoinResp {
	if !m.Who.Valid() || m.Who.ID == n.Self.ID {
		return JoinResp{}
	}
	if n.AdmitJoin != nil && !n.AdmitJoin(m) {
		return JoinResp{}
	}
	resp := JoinResp{
		OK: true,
		// The joiner's successor list is [us] + our successors.
		Successors: mergeNeighborList(m.Who, n.Self, n.succs, n.Cfg.Successors),
		// The joiner inherits our current predecessors (it is about to
		// become the first of them).
		Predecessors: mergeNeighborList(m.Who, NoPeer, n.preds, n.Cfg.Successors),
	}
	// Install the joiner as our predecessor, exactly as a clockwise notify
	// would.
	n.handleNotify(NotifyReq{Clockwise: true, Who: m.Who})
	return resp
}

// handleLeave splices a gracefully departing neighbor out of the local
// state. The departing node hands over its own neighbor lists so the ring
// heals without waiting for suspicion timeouts.
func (n *Node) handleLeave(m LeaveReq) LeaveResp {
	if !m.Who.Valid() || m.Who.ID == n.Self.ID {
		return LeaveResp{}
	}
	if n.VetLeave != nil && !n.VetLeave(m) {
		return LeaveResp{}
	}
	wasSucc := len(n.succs) > 0 && n.succs[0].ID == m.Who.ID
	wasPred := len(n.preds) > 0 && n.preds[0].ID == m.Who.ID
	n.dropNeighbor(m.Who, true)
	n.dropNeighbor(m.Who, false)
	splice := func(own, theirs []Peer) []Peer {
		merged := slices.Clone(own)
		for _, p := range theirs {
			if p.Valid() && p.ID != m.Who.ID {
				merged = append(merged, p)
			}
		}
		// mergeNeighborList with a NoPeer head is the shared
		// dedup/self-exclusion/trim invariant.
		return mergeNeighborList(n.Self, NoPeer, merged, n.Cfg.Successors)
	}
	if wasSucc && len(m.Successors) > 0 {
		// The departed node's successors become ours, after anything we
		// already hold that is closer.
		n.succs = splice(n.succs, m.Successors)
	}
	if wasPred && len(m.Predecessors) > 0 {
		n.preds = splice(n.preds, m.Predecessors)
	}
	return LeaveResp{OK: true}
}

// JoinVia runs the full online-join handshake through any live ring member:
// look up our own identifier to find the successor, then ask it for
// admission with a JoinReq carrying our certificate, and seed the local
// neighbor lists from its answer. done receives nil on success.
//
// The first stabilization round is kicked off immediately on success, so
// the successor's successor learns about us within one RPC round instead of
// one stabilization period.
func (n *Node) JoinVia(bootstrap Peer, done func(error)) {
	n.LookupVia(bootstrap, n.Self.ID, func(owner Peer, _ LookupStats, err error) {
		if err != nil {
			done(fmt.Errorf("chord: join lookup failed: %w", err))
			return
		}
		if !owner.Valid() || owner.ID == n.Self.ID {
			done(errors.New("chord: join found no distinct successor"))
			return
		}
		req := JoinReq{Who: n.Self}
		if n.ident != nil {
			req.Cert = n.ident.Cert
		}
		n.tr.Call(n.Self.Addr, owner.Addr, req, n.Cfg.RPCTimeout,
			func(resp transport.Message, err error) {
				if err != nil {
					done(fmt.Errorf("chord: join handshake with %v: %w", owner, err))
					return
				}
				r, ok := resp.(JoinResp)
				if !ok || !r.OK {
					done(ErrJoinRefused)
					return
				}
				n.succs = mergeNeighborList(n.Self, owner, r.Successors, n.Cfg.Successors)
				n.preds = mergeNeighborList(n.Self, NoPeer, r.Predecessors, n.Cfg.Successors)
				n.stabilize(true)
				done(nil)
			})
	})
}

// Leave departs the ring gracefully: the node notifies its first
// predecessor and first successor with its neighbor lists (so both can
// splice it out immediately), waits for their acknowledgements (or the RPC
// timeout), then stops. done receives nil when every notified neighbor
// acknowledged, ErrLeaveTimeout otherwise; either way the node is stopped
// when done fires.
func (n *Node) Leave(done func(error)) {
	type notice struct {
		to        Peer
		clockwise bool
	}
	var notices []notice
	if len(n.preds) > 0 && n.preds[0].Valid() {
		notices = append(notices, notice{n.preds[0], false})
	}
	if len(n.succs) > 0 && n.succs[0].Valid() {
		notices = append(notices, notice{n.succs[0], true})
	}
	if len(notices) == 0 {
		n.Stop()
		done(nil)
		return
	}
	req := LeaveReq{
		Who:          n.Self,
		Successors:   slices.Clone(n.succs),
		Predecessors: slices.Clone(n.preds),
	}
	if n.ident != nil {
		// Signing failures cannot occur with the in-tree schemes; a nil
		// Sig simply fails vetting downstream, the correct degraded
		// behaviour.
		req.Sig, _ = n.ident.Scheme.Sign(n.ident.Key, LeaveStatement(n.Self))
	}
	remaining := len(notices)
	acked := 0
	finish := func() {
		n.Stop()
		if acked == len(notices) {
			done(nil)
		} else {
			done(ErrLeaveTimeout)
		}
	}
	for _, nt := range notices {
		n.tr.Call(n.Self.Addr, nt.to.Addr, req, n.Cfg.RPCTimeout,
			func(resp transport.Message, err error) {
				if err == nil {
					if r, ok := resp.(LeaveResp); ok && r.OK {
						acked++
					}
				}
				remaining--
				if remaining == 0 {
					finish()
				}
			})
	}
}

// suspectNeighbor probes one random non-head neighbor with an
// identity-echoing ping. Stabilization already polices the list heads every
// period; the tails only change through merges and would otherwise hold
// dead entries until they rotate to the front. A timeout or an identity
// mismatch (a replacement answering at the dead node's address) drops the
// entry everywhere.
func (n *Node) suspectNeighbor() {
	if !n.running {
		return
	}
	var candidates []Peer
	if len(n.succs) > 1 {
		candidates = append(candidates, n.succs[1:]...)
	}
	if len(n.preds) > 1 {
		candidates = append(candidates, n.preds[1:]...)
	}
	if len(candidates) == 0 {
		return
	}
	target := candidates[n.tr.Rand().Intn(len(candidates))]
	if !target.Valid() {
		return
	}
	n.tr.Call(n.Self.Addr, target.Addr, SuspectReq{}, n.Cfg.RPCTimeout,
		func(resp transport.Message, err error) {
			if !n.running {
				return
			}
			if err == nil {
				if r, ok := resp.(SuspectResp); ok && r.Who.ID == target.ID {
					return // alive, identity confirmed
				}
			}
			n.dropNeighbor(target, true)
			n.dropNeighbor(target, false)
		})
}
