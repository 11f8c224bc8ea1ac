package core

import (
	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// One-hop tier maintenance registry (0x08xx): D1HT-style aggregated
// membership-event dissemination plus the joiner's full-table bootstrap.
// See docs/PROTOCOL.md for the wire layout.

// Wire type codes of the one-hop maintenance registry (0x08xx).
const (
	wireTierEventNotify = 0x0801
	wireTierSyncReq     = 0x0802
	wireTierSyncResp    = 0x0803
)

// TierEventNotify carries a batch of membership events at one EDRA level:
// joins as full peers, leaves/failures/revocations as bare IDs. TTL is the
// remaining propagation depth — a receiver applies every event and
// re-propagates to levels below TTL.
type TierEventNotify struct {
	TTL    uint8
	Joins  []chord.Peer
	Leaves []id.ID
}

// TierSyncReq asks a peer for one page of its one-hop table in ID order,
// starting strictly after From. Max bounds the page size.
type TierSyncReq struct {
	From id.ID
	Max  uint16
}

// TierSyncResp returns one table page; More tells the joiner to chain
// another request from the last returned ID.
type TierSyncResp struct {
	More  bool
	Peers []chord.Peer
}

// WireType implements transport.Wire.
func (TierEventNotify) WireType() uint16 { return wireTierEventNotify }

// Code implements transport.Wire.
func (m TierEventNotify) Code(c *transport.Codec) transport.Wire {
	c.U8(&m.TTL)
	chord.CodePeers(c, &m.Joins)
	transport.List(c, &m.Leaves, 8, (*transport.Codec).ID)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (TierSyncReq) WireType() uint16 { return wireTierSyncReq }

// Code implements transport.Wire.
func (m TierSyncReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.From)
	c.U16(&m.Max)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (TierSyncResp) WireType() uint16 { return wireTierSyncResp }

// Code implements transport.Wire.
func (m TierSyncResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.More)
	chord.CodePeers(c, &m.Peers)
	return transport.Decoded(c, &m)
}

func init() { transport.Register(TierEventNotify{}, TierSyncReq{}, TierSyncResp{}) }
