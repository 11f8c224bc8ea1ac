package chord

import (
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// RPC message types exchanged by the routing layer. Every type implements
// transport.Wire (codec.go): it has a real binary encoding, and Size()
// reports the exact frame length of that encoding via transport.EncodedSize.

// peerWireSize is the encoded size of one routing item: ring identifier
// plus endpoint address (see CodePeer).
const peerWireSize = xcrypto.RoutingItemWireSize

// PingReq checks liveness.
type PingReq struct{}

// Size implements transport.Message.
func (m PingReq) Size() int { return transport.EncodedSize(m) }

// PingResp acknowledges a ping.
type PingResp struct{}

// Size implements transport.Message.
func (m PingResp) Size() int { return transport.EncodedSize(m) }

// FindNextReq is the classic Chord iterative-lookup step: the key is exposed
// to the queried node, which replies with its best next hop. Used by the
// Chord and Halo baselines (NISAN and Octopus hide the key by fetching whole
// tables instead).
type FindNextReq struct {
	Key id.ID
}

// Size implements transport.Message.
func (m FindNextReq) Size() int { return transport.EncodedSize(m) }

// FindNextResp answers a FindNextReq.
type FindNextResp struct {
	// Done reports that the queried node knows the key's owner directly:
	// the key falls between the queried node and one of its successors.
	Done bool
	// Owner is the key owner when Done.
	Owner Peer
	// Next is the closest preceding node to continue the lookup at when
	// not Done.
	Next Peer
}

// Size implements transport.Message.
func (m FindNextResp) Size() int { return transport.EncodedSize(m) }

// GetTableReq asks a node for its routing table. NISAN requests fingers
// only; Octopus requests fingers plus the successor list (§4.3); the
// surveillance mechanisms additionally request the predecessor list (§4.4).
type GetTableReq struct {
	IncludeSuccessors   bool
	IncludePredecessors bool
}

// Size implements transport.Message.
func (m GetTableReq) Size() int { return transport.EncodedSize(m) }

// GetTableResp carries the (optionally signed) routing table.
type GetTableResp struct {
	Table RoutingTable
}

// Size implements transport.Message.
func (m GetTableResp) Size() int { return transport.EncodedSize(m) }

// StabilizeReq implements one step of Chord stabilization in either
// direction: the caller asks a neighbor for its neighbor list and its
// closest link back toward the caller.
type StabilizeReq struct {
	// Clockwise selects successor-list stabilization; false selects the
	// anti-clockwise predecessor-list protocol Octopus adds (§4.3).
	Clockwise bool
}

// Size implements transport.Message.
func (m StabilizeReq) Size() int { return transport.EncodedSize(m) }

// StabilizeResp carries the neighbor list in the requested direction plus
// the responder's closest link in the opposite direction, which the caller
// uses exactly as Chord's successor.predecessor probe.
type StabilizeResp struct {
	// Neighbors is the responder's successor list (clockwise) or
	// predecessor list (anti-clockwise). Signed as part of Table when the
	// responder has an identity: Octopus requires signed successor lists
	// so they can serve as pollution proofs (§4.3, Fig. 2(b)).
	Table RoutingTable
	// Back is the responder's predecessor (clockwise) or successor
	// (anti-clockwise).
	Back Peer
}

// Size implements transport.Message.
func (m StabilizeResp) Size() int { return transport.EncodedSize(m) }

// NotifyReq tells a neighbor the caller believes it is adjacent to it.
type NotifyReq struct {
	// Clockwise true means "I believe I am your predecessor" (sent to the
	// successor); false means "I believe I am your successor".
	Clockwise bool
	Who       Peer
}

// Size implements transport.Message.
func (m NotifyReq) Size() int { return transport.EncodedSize(m) }

// NotifyResp acknowledges a notify.
type NotifyResp struct{}

// Size implements transport.Message.
func (m NotifyResp) Size() int { return transport.EncodedSize(m) }
