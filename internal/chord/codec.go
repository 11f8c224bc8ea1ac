package chord

import "github.com/octopus-dht/octopus/internal/transport"

// Binary wire codec for the routing-layer messages. Every message is a
// transport.Wire whose Code method is its one field list: the same function
// encodes it, sizes it (transport.EncodedSize) and decodes it, so bandwidth
// accounting, serialization and parsing can never drift apart. The codec
// tests fuzz round-trips and enforce Size() == len(Encode(m)) for every type.

// Wire type codes of the chord package (0x01xx block).
const (
	wirePingReq       = 0x0101
	wirePingResp      = 0x0102
	wireFindNextReq   = 0x0103
	wireFindNextResp  = 0x0104
	wireGetTableReq   = 0x0105
	wireGetTableResp  = 0x0106
	wireStabilizeReq  = 0x0107
	wireStabilizeResp = 0x0108
	wireNotifyReq     = 0x0109
	wireNotifyResp    = 0x010A
)

// getTableReqBoxed holds the four GetTableReq values, boxed once: every
// lookup query sends one, and its decoder returns a shared interface value
// instead of heap-boxing a fresh struct per frame. Receivers get value
// copies on type assertion, so sharing is invisible.
var getTableReqBoxed [2][2]transport.Wire

func init() {
	for _, s := range []bool{false, true} {
		for _, p := range []bool{false, true} {
			getTableReqBoxed[b2i(s)][b2i(p)] = GetTableReq{IncludeSuccessors: s, IncludePredecessors: p}
		}
	}
	transport.Register(PingReq{}, PingResp{}, FindNextReq{}, FindNextResp{}, GetTableReq{},
		GetTableResp{}, StabilizeReq{}, StabilizeResp{}, NotifyReq{}, NotifyResp{})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CodePeer codes a routing item: ring identifier (8 bytes) plus endpoint
// address (6 bytes, the width of an IPv4:port pair).
func CodePeer(c *transport.Codec, p *Peer) {
	c.ID(&p.ID)
	c.Addr(&p.Addr)
}

// CodePeers codes a peer list behind a presence flag, so nil and empty
// lists round-trip distinctly (the protocol distinguishes "no successor
// list requested" from "empty successor list").
func CodePeers(c *transport.Codec, ps *[]Peer) {
	switch {
	case !transport.Present(c, ps):
	case c.Counting():
		// Size() runs per delivered message; the items are fixed-width.
		c.Pad(2 + len(*ps)*peerWireSize)
	default:
		transport.List(c, ps, peerWireSize, CodePeer)
	}
}

// CodeTable codes the full signed-table wire format.
func CodeTable(c *transport.Codec, rt *RoutingTable) {
	CodePeer(c, &rt.Owner)
	c.Duration(&rt.Timestamp)
	CodePeers(c, &rt.Fingers)
	if transport.Present(c, &rt.FingerExps) {
		c.Bytes16(&rt.FingerExps)
	}
	CodePeers(c, &rt.Successors)
	CodePeers(c, &rt.Predecessors)
	c.Bytes16(&rt.Sig)
}

// WireType implements transport.Wire.
func (PingReq) WireType() uint16 { return wirePingReq }

// Code implements transport.Wire.
func (m PingReq) Code(c *transport.Codec) transport.Wire { return transport.Decoded(c, &m) }

// WireType implements transport.Wire.
func (PingResp) WireType() uint16 { return wirePingResp }

// Code implements transport.Wire.
func (m PingResp) Code(c *transport.Codec) transport.Wire { return transport.Decoded(c, &m) }

// WireType implements transport.Wire.
func (FindNextReq) WireType() uint16 { return wireFindNextReq }

// Code implements transport.Wire.
func (m FindNextReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.Key)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (FindNextResp) WireType() uint16 { return wireFindNextResp }

// Code implements transport.Wire.
func (m FindNextResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.Done)
	CodePeer(c, &m.Owner)
	CodePeer(c, &m.Next)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (GetTableReq) WireType() uint16 { return wireGetTableReq }

// Code implements transport.Wire.
func (m GetTableReq) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.IncludeSuccessors)
	c.Bool(&m.IncludePredecessors)
	if !c.Decoding() {
		return nil
	}
	return getTableReqBoxed[b2i(m.IncludeSuccessors)][b2i(m.IncludePredecessors)]
}

// WireType implements transport.Wire.
func (GetTableResp) WireType() uint16 { return wireGetTableResp }

// Code implements transport.Wire.
func (m GetTableResp) Code(c *transport.Codec) transport.Wire {
	CodeTable(c, &m.Table)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (StabilizeReq) WireType() uint16 { return wireStabilizeReq }

// Code implements transport.Wire.
func (m StabilizeReq) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.Clockwise)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (StabilizeResp) WireType() uint16 { return wireStabilizeResp }

// Code implements transport.Wire.
func (m StabilizeResp) Code(c *transport.Codec) transport.Wire {
	CodeTable(c, &m.Table)
	CodePeer(c, &m.Back)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (NotifyReq) WireType() uint16 { return wireNotifyReq }

// Code implements transport.Wire.
func (m NotifyReq) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.Clockwise)
	CodePeer(c, &m.Who)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (NotifyResp) WireType() uint16 { return wireNotifyResp }

// Code implements transport.Wire.
func (m NotifyResp) Code(c *transport.Codec) transport.Wire { return transport.Decoded(c, &m) }
