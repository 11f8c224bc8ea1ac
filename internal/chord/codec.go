package chord

import (
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Binary wire codec for the routing-layer messages. Every message is a
// transport.Wire: it encodes to a self-describing frame and its Size() is
// derived from the real encoding (transport.EncodedSize), so bandwidth
// accounting and actual serialization can never drift apart. The codec tests
// fuzz round-trips and enforce Size() == len(Encode(m)) for every type.

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

// Pre-boxed singletons for the field-free and two-bool message types: their
// decoders return shared interface values instead of heap-boxing a fresh
// struct per frame. Receivers get value copies on type assertion, so sharing
// is invisible.
var (
	pingReqBoxed     transport.Wire = PingReq{}
	pingRespBoxed    transport.Wire = PingResp{}
	notifyRespBoxed  transport.Wire = NotifyResp{}
	getTableReqBoxed [2][2]transport.Wire
)

func init() {
	for _, s := range []bool{false, true} {
		for _, p := range []bool{false, true} {
			getTableReqBoxed[b2i(s)][b2i(p)] = GetTableReq{IncludeSuccessors: s, IncludePredecessors: p}
		}
	}
	transport.RegisterType(wirePingReq, func(r *transport.Reader) transport.Wire { return pingReqBoxed })
	transport.RegisterType(wirePingResp, func(r *transport.Reader) transport.Wire { return pingRespBoxed })
	transport.RegisterType(wireFindNextReq, func(r *transport.Reader) transport.Wire {
		return FindNextReq{Key: id.ID(r.U64())}
	})
	transport.RegisterType(wireFindNextResp, func(r *transport.Reader) transport.Wire {
		return FindNextResp{Done: r.Bool(), Owner: DecodePeer(r), Next: DecodePeer(r)}
	})
	transport.RegisterType(wireGetTableReq, func(r *transport.Reader) transport.Wire {
		return getTableReqBoxed[b2i(r.Bool())][b2i(r.Bool())]
	})
	transport.RegisterType(wireGetTableResp, func(r *transport.Reader) transport.Wire {
		return GetTableResp{Table: DecodeTable(r)}
	})
	transport.RegisterType(wireStabilizeReq, func(r *transport.Reader) transport.Wire {
		return StabilizeReq{Clockwise: r.Bool()}
	})
	transport.RegisterType(wireStabilizeResp, func(r *transport.Reader) transport.Wire {
		return StabilizeResp{Table: DecodeTable(r), Back: DecodePeer(r)}
	})
	transport.RegisterType(wireNotifyReq, func(r *transport.Reader) transport.Wire {
		return NotifyReq{Clockwise: r.Bool(), Who: DecodePeer(r)}
	})
	transport.RegisterType(wireNotifyResp, func(r *transport.Reader) transport.Wire { return notifyRespBoxed })
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// EncodePeer writes a routing item: ring identifier (8 bytes) plus endpoint
// address (6 bytes, the width of an IPv4:port pair).
func EncodePeer(w *transport.Writer, p Peer) {
	w.U64(uint64(p.ID))
	w.Addr(p.Addr)
}

// DecodePeer reads a routing item written by EncodePeer.
func DecodePeer(r *transport.Reader) Peer {
	return Peer{ID: id.ID(r.U64()), Addr: r.Addr()}
}

// EncodePeers writes a peer list with a presence flag so nil and empty
// slices round-trip distinctly (the protocol distinguishes "no successor
// list requested" from "empty successor list").
func EncodePeers(w *transport.Writer, ps []Peer) {
	w.Bool(ps != nil)
	if ps == nil {
		return
	}
	if w.Counting() {
		// Size() runs per delivered message; the items are fixed-width.
		w.Pad(2 + len(ps)*peerWireSize)
		return
	}
	w.U16(uint16(len(ps)))
	for _, p := range ps {
		EncodePeer(w, p)
	}
}

// DecodePeers reads a peer list written by EncodePeers.
func DecodePeers(r *transport.Reader) []Peer {
	if !r.Bool() {
		return nil
	}
	n := int(r.U16())
	if r.Err() != nil || r.Remaining() < n*peerWireSize {
		r.Fail()
		return nil
	}
	ps := make([]Peer, n)
	for i := range ps {
		ps[i] = DecodePeer(r)
	}
	return ps
}

// EncodeTable writes the full signed-table wire format.
func EncodeTable(w *transport.Writer, rt RoutingTable) {
	EncodePeer(w, rt.Owner)
	w.Duration(rt.Timestamp)
	EncodePeers(w, rt.Fingers)
	w.Bool(rt.FingerExps != nil)
	if rt.FingerExps != nil {
		w.U16(uint16(len(rt.FingerExps)))
		w.Raw(rt.FingerExps)
	}
	EncodePeers(w, rt.Successors)
	EncodePeers(w, rt.Predecessors)
	w.Bytes16(rt.Sig)
}

// DecodeTable reads a table written by EncodeTable.
func DecodeTable(r *transport.Reader) RoutingTable {
	rt := RoutingTable{
		Owner:     DecodePeer(r),
		Timestamp: r.Duration(),
		Fingers:   DecodePeers(r),
	}
	if r.Bool() {
		n := int(r.U16())
		if r.Err() != nil || r.Remaining() < n {
			r.Fail()
			return RoutingTable{}
		}
		if n == 0 {
			rt.FingerExps = []uint8{} // presence flag: empty, not nil
		} else {
			rt.FingerExps = r.Raw(n)
		}
	}
	rt.Successors = DecodePeers(r)
	rt.Predecessors = DecodePeers(r)
	rt.Sig = r.Bytes16()
	return rt
}

// WireType implements transport.Wire.
func (PingReq) WireType() uint16 { return wirePingReq }

// EncodePayload implements transport.Wire.
func (PingReq) EncodePayload(*transport.Writer) {}

// WireType implements transport.Wire.
func (PingResp) WireType() uint16 { return wirePingResp }

// EncodePayload implements transport.Wire.
func (PingResp) EncodePayload(*transport.Writer) {}

// WireType implements transport.Wire.
func (FindNextReq) WireType() uint16 { return wireFindNextReq }

// EncodePayload implements transport.Wire.
func (m FindNextReq) EncodePayload(w *transport.Writer) { w.U64(uint64(m.Key)) }

// WireType implements transport.Wire.
func (FindNextResp) WireType() uint16 { return wireFindNextResp }

// EncodePayload implements transport.Wire.
func (m FindNextResp) EncodePayload(w *transport.Writer) {
	w.Bool(m.Done)
	EncodePeer(w, m.Owner)
	EncodePeer(w, m.Next)
}

// WireType implements transport.Wire.
func (GetTableReq) WireType() uint16 { return wireGetTableReq }

// EncodePayload implements transport.Wire.
func (m GetTableReq) EncodePayload(w *transport.Writer) {
	w.Bool(m.IncludeSuccessors)
	w.Bool(m.IncludePredecessors)
}

// WireType implements transport.Wire.
func (GetTableResp) WireType() uint16 { return wireGetTableResp }

// EncodePayload implements transport.Wire.
func (m GetTableResp) EncodePayload(w *transport.Writer) { EncodeTable(w, m.Table) }

// WireType implements transport.Wire.
func (StabilizeReq) WireType() uint16 { return wireStabilizeReq }

// EncodePayload implements transport.Wire.
func (m StabilizeReq) EncodePayload(w *transport.Writer) { w.Bool(m.Clockwise) }

// WireType implements transport.Wire.
func (StabilizeResp) WireType() uint16 { return wireStabilizeResp }

// EncodePayload implements transport.Wire.
func (m StabilizeResp) EncodePayload(w *transport.Writer) {
	EncodeTable(w, m.Table)
	EncodePeer(w, m.Back)
}

// WireType implements transport.Wire.
func (NotifyReq) WireType() uint16 { return wireNotifyReq }

// EncodePayload implements transport.Wire.
func (m NotifyReq) EncodePayload(w *transport.Writer) {
	w.Bool(m.Clockwise)
	EncodePeer(w, m.Who)
}

// WireType implements transport.Wire.
func (NotifyResp) WireType() uint16 { return wireNotifyResp }

// EncodePayload implements transport.Wire.
func (NotifyResp) EncodePayload(*transport.Writer) {}
