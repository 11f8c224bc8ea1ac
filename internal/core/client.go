package core

import (
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Client-serving wire registry (0x05xx, docs/PROTOCOL.md §7): the messages
// an external process — one that holds no slot in the ring and runs none
// of the protocol — uses to drive anonymous lookups on a serving daemon.
// Requests travel over the bootstrap channel (frames addressed to NoAddr,
// answered on the inbound connection), the same path -join admissions use:
// a client needs nothing but a TCP endpoint.
//
// The daemon resolves the key with its own relay pairs and α-parallel
// lookup, so the client inherits the daemon's anonymity set membership
// rather than its own (the daemon is the initiator as far as the ring is
// concerned — the client trusts its daemon the way a Tor client trusts
// its local proxy).

// Wire type codes of the client registry (0x05xx block).
const (
	wireClientLookupReq  = 0x0501
	wireClientLookupResp = 0x0502
)

// ClientLookupReq asks a serving daemon to resolve Key anonymously. Seq is
// echoed in the response so clients may pipeline requests on one
// connection.
type ClientLookupReq struct {
	Seq uint64
	Key id.ID
}

// WireType implements transport.Wire.
func (ClientLookupReq) WireType() uint16 { return wireClientLookupReq }

// Code implements transport.Wire.
func (m ClientLookupReq) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.Seq)
	c.ID(&m.Key)
	return transport.Decoded(c, &m)
}

// ClientLookupResp reports one served lookup. Busy distinguishes
// backpressure (retry later) from a failed lookup; on success Owner is the
// resolved key owner and the counters mirror LookupStats.
type ClientLookupResp struct {
	Seq   uint64
	OK    bool
	Busy  bool
	Owner chord.Peer
	// Queries/Dummies/PairsUsed/Rejected mirror LookupStats.
	Queries   uint16
	Dummies   uint16
	PairsUsed uint16
	Rejected  uint16
	// LatencyMicros is the lookup's duration; WaitMicros the time queued
	// behind other clients before a worker picked it up.
	LatencyMicros uint64
	WaitMicros    uint64
}

// WireType implements transport.Wire.
func (ClientLookupResp) WireType() uint16 { return wireClientLookupResp }

// Code implements transport.Wire.
func (m ClientLookupResp) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.Seq)
	c.Flags(&m.OK, &m.Busy)
	chord.CodePeer(c, &m.Owner)
	c.U16(&m.Queries)
	c.U16(&m.Dummies)
	c.U16(&m.PairsUsed)
	c.U16(&m.Rejected)
	c.U64(&m.LatencyMicros)
	c.U64(&m.WaitMicros)
	return transport.Decoded(c, &m)
}

func init() { transport.Register(ClientLookupReq{}, ClientLookupResp{}) }

// ServeClientLookup bridges one wire request into the service and blocks —
// up to timeout — for the outcome. It is intended for a bootstrap-channel
// dispatcher, which runs on the client connection's read goroutine:
// blocking there serializes one client's pipelined requests (its private
// queue) without holding up other connections. client labels the caller
// for per-client quotas (octopusd uses the remote IP).
func (s *LookupService) ServeClientLookup(client string, m ClientLookupReq, timeout time.Duration) ClientLookupResp {
	ch := make(chan ServiceResult, 1)
	cancel := s.EnqueueCancellable(client, m.Key, func(res ServiceResult) { ch <- res })
	var res ServiceResult
	select {
	case res = <-ch:
	case <-time.After(timeout):
		// Withdraw the job if it is still queued — the client is told
		// busy and will retry, and its retry must not stack on top of an
		// abandoned queue entry still holding its quota.
		cancel()
		res = ServiceResult{Err: ErrServiceBusy}
	}
	resp := ClientLookupResp{Seq: m.Seq}
	switch {
	case res.Err == ErrServiceBusy || res.Err == ErrClientBusy:
		resp.Busy = true
	case res.Err != nil:
	default:
		resp.OK = true
		resp.Owner = res.Owner
	}
	resp.Queries = clampU16(res.Stats.Queries)
	resp.Dummies = clampU16(res.Stats.Dummies)
	resp.PairsUsed = clampU16(res.Stats.PairsUsed)
	resp.Rejected = clampU16(res.Stats.Rejected)
	resp.LatencyMicros = uint64(res.Stats.Latency() / time.Microsecond)
	resp.WaitMicros = uint64(res.Wait / time.Microsecond)
	return resp
}

func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > int(^uint16(0)) {
		return ^uint16(0)
	}
	return uint16(v)
}
