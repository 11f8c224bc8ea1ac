// Package store layers a replicated key-value subsystem over Octopus's
// secure and anonymous lookups — the workload the paper's lookup primitive
// exists to serve. A write resolves the key's owner with an anonymous
// lookup and delivers the value over an anonymous path (core.AnonRPC), so
// the ring never links a key to the node storing it; the owner then
// replicates to its successor list (core.Config.StoreReplicas copies in
// total). A read resolves the owner the same way and tries the owner and
// its successors in order, each attempt bounded by the anonymous-query
// timeout, so a freshly dead owner degrades to one extra round instead of a
// miss. Churn re-replication rides the membership machinery: a joining node
// pulls the key range it now owns from its successor, a gracefully leaving
// node hands its keys over, and the periodic sync re-spreads owned keys
// after unplanned deaths.
package store

import (
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Wire type codes of the storage registry (0x06xx block,
// docs/PROTOCOL.md §8). 0x060x are the ring-internal messages; 0x061x are
// the client-facing messages served on the bootstrap channel.
const (
	wireStoreReq      = 0x0601
	wireStoreResp     = 0x0602
	wireFetchReq      = 0x0603
	wireFetchResp     = 0x0604
	wireReplicateReq  = 0x0605
	wireReplicateResp = 0x0606
	wirePullReq       = 0x0607
	wirePullResp      = 0x0608
	wireClientPutReq  = 0x0611
	wireClientPutResp = 0x0612
	wireClientGetReq  = 0x0613
	wireClientGetResp = 0x0614
)

// MaxValueSize bounds one stored value. The wire format length-prefixes
// values with a uint16, so anything larger could not round-trip; the bound
// is enforced at every write entry point rather than discovered as a
// corrupt frame.
const MaxValueSize = 60000

// KV is one replicated entry as it travels in replication and handover
// batches. Version orders writes (last writer wins): owners stamp it from
// the transport clock, strictly above any version they already hold.
type KV struct {
	Key     id.ID
	Version uint64
	Value   []byte
}

// minKVWireSize bounds up-front allocation for entry lists: key + version +
// value length prefix.
const minKVWireSize = 8 + 8 + 2

func codeKV(c *transport.Codec, e *KV) {
	c.ID(&e.Key)
	c.U64(&e.Version)
	c.Bytes16(&e.Value)
}

// StoreReq asks the key's owner to store a value. It arrives over an
// anonymous path (the owner sees only the exit relay), so it carries no
// writer identity; the owner stamps the version and fans the entry out to
// its successor list.
type StoreReq struct {
	Key   id.ID
	Value []byte
}

// Size implements transport.Message.
func (m StoreReq) Size() int { return transport.EncodedSize(m) }

// StoreResp acknowledges a store. Replicas is the number of copies the
// owner targeted (itself plus the successors it fanned out to).
type StoreResp struct {
	OK       bool
	Replicas uint16
}

// Size implements transport.Message.
func (m StoreResp) Size() int { return transport.EncodedSize(m) }

// FetchReq asks any replica for its copy of a key. Like StoreReq it travels
// anonymously, so a reader is never linkable to the keys it consumes.
type FetchReq struct {
	Key id.ID
}

// Size implements transport.Message.
func (m FetchReq) Size() int { return transport.EncodedSize(m) }

// FetchResp returns a replica's copy, when it holds one.
type FetchResp struct {
	Found   bool
	Version uint64
	Value   []byte
}

// Size implements transport.Message.
func (m FetchResp) Size() int { return transport.EncodedSize(m) }

// ReplicateReq copies entries between ring members: owner → successor
// fan-out after a write, the periodic re-replication sync, and a leaving
// node's handover all use it. Receivers keep the higher version per key, so
// replication is idempotent and late batches cannot roll an entry back.
type ReplicateReq struct {
	Entries []KV
}

// Size implements transport.Message.
func (m ReplicateReq) Size() int { return transport.EncodedSize(m) }

// ReplicateResp acknowledges a replication batch. Stored counts the entries
// that were new (or newer) to the receiver.
type ReplicateResp struct {
	OK     bool
	Stored uint16
}

// Size implements transport.Message.
func (m ReplicateResp) Size() int { return transport.EncodedSize(m) }

// PullReq asks a successor for every entry in the clockwise key range
// (From, To] — the range a joining node now owns and must serve.
type PullReq struct {
	From, To id.ID
}

// Size implements transport.Message.
func (m PullReq) Size() int { return transport.EncodedSize(m) }

// PullResp returns the requested range.
type PullResp struct {
	Entries []KV
}

// Size implements transport.Message.
func (m PullResp) Size() int { return transport.EncodedSize(m) }

// ClientPutReq is the client-facing write: an external process that holds
// no ring slot stores a value through a serving daemon over the bootstrap
// channel (docs/PROTOCOL.md §6), exactly as ClientLookupReq serves lookups.
// Seq is echoed so clients may pipeline requests on one connection.
type ClientPutReq struct {
	Seq   uint64
	Key   id.ID
	Value []byte
}

// Size implements transport.Message.
func (m ClientPutReq) Size() int { return transport.EncodedSize(m) }

// ClientPutResp reports one served write. Busy distinguishes backpressure
// (retry later) from a failed write.
type ClientPutResp struct {
	Seq  uint64
	OK   bool
	Busy bool
	// Replicas is the number of copies the owner targeted.
	Replicas uint16
	// LatencyMicros is the daemon-observed duration of the whole write
	// (lookup + anonymous store + fan-out acknowledgement).
	LatencyMicros uint64
}

// Size implements transport.Message.
func (m ClientPutResp) Size() int { return transport.EncodedSize(m) }

// ClientGetReq is the client-facing read.
type ClientGetReq struct {
	Seq uint64
	Key id.ID
}

// Size implements transport.Message.
func (m ClientGetReq) Size() int { return transport.EncodedSize(m) }

// ClientGetResp reports one served read. Found=false with Busy=false means
// no replica holds the key.
type ClientGetResp struct {
	Seq     uint64
	Found   bool
	Busy    bool
	Version uint64
	Value   []byte
	// Tried is the number of replicas contacted before the answer.
	Tried         uint16
	LatencyMicros uint64
}

// Size implements transport.Message.
func (m ClientGetResp) Size() int { return transport.EncodedSize(m) }

func init() {
	transport.Register(StoreReq{}, StoreResp{}, FetchReq{}, FetchResp{}, ReplicateReq{}, ReplicateResp{},
		PullReq{}, PullResp{}, ClientPutReq{}, ClientPutResp{}, ClientGetReq{}, ClientGetResp{})
}

// WireType implements transport.Wire.
func (StoreReq) WireType() uint16 { return wireStoreReq }

// Code implements transport.Wire.
func (m StoreReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.Key)
	c.Bytes16(&m.Value)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (StoreResp) WireType() uint16 { return wireStoreResp }

// Code implements transport.Wire.
func (m StoreResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	c.U16(&m.Replicas)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (FetchReq) WireType() uint16 { return wireFetchReq }

// Code implements transport.Wire.
func (m FetchReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.Key)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (FetchResp) WireType() uint16 { return wireFetchResp }

// Code implements transport.Wire.
func (m FetchResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.Found)
	c.U64(&m.Version)
	c.Bytes16(&m.Value)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ReplicateReq) WireType() uint16 { return wireReplicateReq }

// Code implements transport.Wire.
func (m ReplicateReq) Code(c *transport.Codec) transport.Wire {
	transport.List(c, &m.Entries, minKVWireSize, codeKV)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ReplicateResp) WireType() uint16 { return wireReplicateResp }

// Code implements transport.Wire.
func (m ReplicateResp) Code(c *transport.Codec) transport.Wire {
	c.Bool(&m.OK)
	c.U16(&m.Stored)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (PullReq) WireType() uint16 { return wirePullReq }

// Code implements transport.Wire.
func (m PullReq) Code(c *transport.Codec) transport.Wire {
	c.ID(&m.From)
	c.ID(&m.To)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (PullResp) WireType() uint16 { return wirePullResp }

// Code implements transport.Wire.
func (m PullResp) Code(c *transport.Codec) transport.Wire {
	transport.List(c, &m.Entries, minKVWireSize, codeKV)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ClientPutReq) WireType() uint16 { return wireClientPutReq }

// Code implements transport.Wire.
func (m ClientPutReq) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.Seq)
	c.ID(&m.Key)
	c.Bytes16(&m.Value)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ClientPutResp) WireType() uint16 { return wireClientPutResp }

// Code implements transport.Wire.
func (m ClientPutResp) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.Seq)
	c.Flags(&m.OK, &m.Busy)
	c.U16(&m.Replicas)
	c.U64(&m.LatencyMicros)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ClientGetReq) WireType() uint16 { return wireClientGetReq }

// Code implements transport.Wire.
func (m ClientGetReq) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.Seq)
	c.ID(&m.Key)
	return transport.Decoded(c, &m)
}

// WireType implements transport.Wire.
func (ClientGetResp) WireType() uint16 { return wireClientGetResp }

// Code implements transport.Wire.
func (m ClientGetResp) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.Seq)
	c.Flags(&m.Found, &m.Busy)
	c.U64(&m.Version)
	c.Bytes16(&m.Value)
	c.U16(&m.Tried)
	c.U64(&m.LatencyMicros)
	return transport.Decoded(c, &m)
}
