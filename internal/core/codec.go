package core

import (
	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Binary wire codec for the Octopus-layer messages (anonymous paths, walks,
// receipts, CA protocol). Onion-wrapped messages reserve the per-layer
// fields real onion encryption carries — the next-hop endpoint and an
// AES-CTR IV block — so serialized sizes match a genuinely encrypted path
// message; the layer *structure* stays visible to in-process adversary
// instrumentation exactly as before.

// Wire type codes of the core package (0x02xx block).
const (
	wireRelayForward = 0x0201
	wireRelayReply   = 0x0202
	wireWalkSeedReq  = 0x0203
	wireWalkSeedResp = 0x0204
	wireReceipt      = 0x0205
	wireWitnessReq   = 0x0206
	wireWitnessResp  = 0x0207
	wireReportMsg    = 0x0208
	wireProofReq     = 0x0209
	wireProofResp    = 0x020A
	wireReportAck    = 0x020B
)

func init() {
	transport.Register(RelayForward{}, RelayReply{}, WalkSeedReq{}, WalkSeedResp{}, Receipt{},
		WitnessReq{}, WitnessResp{}, ReportMsg{}, ProofReq{}, ProofResp{}, ReportAck{})
}

// minTableWireSize is the smallest possible encoded routing table: owner
// peer (14) + timestamp (8) + four presence flags + signature length (2).
// codeTables uses it to bound up-front allocation against frames that
// claim far more tables than their bytes could hold.
const minTableWireSize = 14 + 8 + 4 + 2

// codeTables codes a table list behind a presence flag (nil round-trips).
func codeTables(c *transport.Codec, ts *[]chord.RoutingTable) {
	if transport.Present(c, ts) {
		transport.List(c, ts, minTableWireSize, chord.CodeTable)
	}
}

// codeU16 codes a small int (an onion depth, a hop count) in a uint16.
func codeU16(c *transport.Codec, p *int) {
	v := uint16(*p)
	c.U16(&v)
	if c.Decoding() {
		*p = int(v)
	}
}

// codeForward codes an optional onion layer as a nested frame. A reader
// leaves *p nil unless the frame holds a RelayForward.
func codeForward(c *transport.Codec, p **RelayForward) {
	var m transport.Message
	if *p != nil {
		m = **p
	}
	c.Nested(&m)
	if !c.Decoding() {
		return
	}
	if fwd, ok := m.(RelayForward); ok {
		*p = &fwd
	}
}

// WireType implements transport.Wire.
func (RelayForward) WireType() uint16 { return wireRelayForward }

// Code implements transport.Wire. Each onion layer carries the query
// identifier, its artificial-delay budget, the remaining depth, the AES-CTR
// IV of the layer, and exactly one of: the exit action, a local delivery,
// or the next hop plus the peeled inner onion.
func (m RelayForward) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.QID)
	c.Duration(&m.Delay)
	codeU16(c, &m.Depth)
	c.Pad(xcrypto.AESBlockSize) // this layer's onion IV
	exit, local, inner := m.Exit != nil, m.Local != nil, m.Inner != nil
	c.Flags(&exit, &local, &inner)
	if exit {
		if m.Exit == nil {
			m.Exit = new(ExitAction)
		}
		c.Addr(&m.Exit.Target)
		c.Nested(&m.Exit.Req)
	}
	if local {
		c.Nested(&m.Local)
	}
	if !inner {
		m.Next = transport.NoAddr
		return transport.Decoded(c, &m)
	}
	c.Addr(&m.Next)
	if codeForward(c, &m.Inner); m.Inner == nil {
		c.Fail()
	}
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (RelayReply) WireType() uint16 { return wireRelayReply }

// Code implements transport.Wire. The pad models the reply's remaining
// onion layers: one next-hop endpoint plus one AES-CTR IV each.
func (m RelayReply) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.QID)
	c.Bool(&m.Failed)
	codeU16(c, &m.Depth)
	c.Nested(&m.Resp)
	c.Pad(xcrypto.OnionWireOverhead(m.Depth))
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (WalkSeedReq) WireType() uint16 { return wireWalkSeedReq }

// Code implements transport.Wire.
func (m WalkSeedReq) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.WalkID)
	c.I64(&m.Seed)
	codeU16(c, &m.Hops)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (WalkSeedResp) WireType() uint16 { return wireWalkSeedResp }

// Code implements transport.Wire.
func (m WalkSeedResp) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.WalkID)
	c.Bool(&m.OK)
	codeTables(c, &m.Tables)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (Receipt) WireType() uint16 { return wireReceipt }

// Code implements transport.Wire.
func (m Receipt) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.QID)
	chord.CodePeer(c, &m.Issuer)
	c.Bytes16(&m.Sig)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (WitnessReq) WireType() uint16 { return wireWitnessReq }

// Code implements transport.Wire.
func (m WitnessReq) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.QID)
	c.Addr(&m.Deliver)
	codeForward(c, &m.Payload)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (WitnessResp) WireType() uint16 { return wireWitnessResp }

// Code implements transport.Wire.
func (m WitnessResp) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.QID)
	c.Bool(&m.Delivered)
	c.Bytes16(&m.Statement)
	chord.CodePeer(c, &m.Witness)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ReportMsg) WireType() uint16 { return wireReportMsg }

// Code implements transport.Wire.
func (m ReportMsg) Code(c *transport.Codec) transport.Wire {
	kind := uint8(m.Kind)
	c.U8(&kind)
	m.Kind = ReportKind(kind)
	chord.CodePeer(c, &m.Accused)
	chord.CodePeer(c, &m.Missing)
	c.ID(&m.IdealID)
	chord.CodePeer(c, &m.ClaimedFinger)
	codeTables(c, &m.Evidence)
	chord.CodePeers(c, &m.Relays)
	c.U64(&m.QID)
	c.Bool(&m.HasHeadReceipt)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ProofReq) WireType() uint16 { return wireProofReq }

// Code implements transport.Wire.
func (m ProofReq) Code(c *transport.Codec) transport.Wire {
	chord.CodePeer(c, &m.Missing)
	c.U64(&m.QID)
	chord.CodePeer(c, &m.FingerClaim)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ProofResp) WireType() uint16 { return wireProofResp }

// Code implements transport.Wire. The list bounds are the smallest
// encodings of a receipt (qid, issuer, signature length) and of a witness
// statement (qid, outcome, statement length, witness).
func (m ProofResp) Code(c *transport.Codec) transport.Wire {
	chord.CodeTable(c, &m.Own)
	codeTables(c, &m.Proofs)
	c.Bool(&m.HasProvenance)
	if m.HasProvenance {
		chord.CodeTable(c, &m.Provenance)
	}
	transport.List(c, &m.Receipts, 8+14+2, transport.Elem[Receipt])
	transport.List(c, &m.Statements, 8+1+2+14, transport.Elem[WitnessResp])
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ReportAck) WireType() uint16 { return wireReportAck }

// Code implements transport.Wire.
func (m ReportAck) Code(c *transport.Codec) transport.Wire { return transport.Decoded(c, &m) }
