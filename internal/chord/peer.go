// Package chord implements the Chord distributed hash table the paper builds
// on (Stoica et al., [34]): fingertables, successor lists, clockwise and
// anti-clockwise stabilization, iterative lookups, and periodic finger
// maintenance. It also carries the Octopus extensions that live naturally at
// the routing layer: predecessor lists (§4.3) and signed, timestamped
// routing tables (§4.3, used as non-repudiable proofs by the attacker
// identification mechanisms).
//
// The package is transport-agnostic: every node speaks exclusively through
// the transport.Transport interface, whose serialization contract (one
// callback at a time per host) keeps the code free of locks both on the
// deterministic simulator and on concurrent transports.
package chord

import (
	"encoding/binary"
	"slices"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Peer is a node reference: a ring identifier plus a network address.
type Peer struct {
	ID   id.ID
	Addr transport.Addr
}

// NoPeer is the sentinel "no such node" value.
var NoPeer = Peer{Addr: transport.NoAddr}

// Valid reports whether the peer refers to an actual node.
func (p Peer) Valid() bool { return p.Addr != transport.NoAddr }

// RoutingTable is the state a node exposes to queriers. In Octopus every
// intermediate node returns its fingertable AND successor list (§4.3); the
// predecessor list is included only for the surveillance RPCs that ask for
// it. Tables are signed by their owner with a timestamp so a manipulated
// table is a non-repudiable proof of misbehaviour.
//
// A table is immutable once built: its slices are never written through, so
// copies of the struct may share them — across messages (the simulator
// delivers by reference), proof queues and table buffers — without a deep
// copy. The tables one node issues while its routing state holds still share
// its snapshot (Node.Table), never its live lists. Whoever needs a changed
// table changes a Clone.
type RoutingTable struct {
	Owner Peer
	// Fingers lists the owner's valid fingers; FingerExps[i] is the
	// exponent of finger i's ideal position (owner + 2^exp). Carrying
	// the exponent explicitly lets verifiers check a finger against its
	// exact ideal instead of guessing the slot (§4.4).
	Fingers      []Peer
	FingerExps   []uint8
	Successors   []Peer
	Predecessors []Peer
	Timestamp    time.Duration
	Sig          []byte
}

// IdealOf returns the ideal position of finger i, or false when the table
// carries no exponent for it.
func (rt RoutingTable) IdealOf(i int) (id.ID, bool) {
	if i < 0 || i >= len(rt.FingerExps) || i >= len(rt.Fingers) {
		return 0, false
	}
	return rt.Owner.ID.FingerTarget(int(rt.FingerExps[i])), true
}

// appendSignedBytes appends the canonical byte encoding covered by the table
// signature to dst.
func (rt *RoutingTable) appendSignedBytes(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(rt.Owner.ID))
	dst = binary.BigEndian.AppendUint64(dst, uint64(rt.Owner.Addr))
	dst = binary.BigEndian.AppendUint64(dst, uint64(rt.Timestamp))
	dst = appendSignedPeers(dst, 1, rt.Fingers)
	dst = append(dst, byte(len(rt.FingerExps)))
	dst = append(dst, rt.FingerExps...)
	dst = appendSignedPeers(dst, 2, rt.Successors)
	return appendSignedPeers(dst, 3, rt.Predecessors)
}

func appendSignedPeers(dst []byte, tag byte, ps []Peer) []byte {
	dst = append(dst, tag, byte(len(ps)))
	for _, p := range ps {
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Addr))
	}
	return dst
}

// Sign attaches the owner's signature to the table.
func (rt *RoutingTable) Sign(scheme xcrypto.Scheme, kp xcrypto.KeyPair) error {
	b := transport.AcquireBuf()
	b.B = rt.appendSignedBytes(b.B)
	sig, err := scheme.Sign(kp, b.B)
	b.Release()
	if err != nil {
		return err
	}
	rt.Sig = sig
	return nil
}

// VerifySig checks the table signature against the owner's public key.
func (rt RoutingTable) VerifySig(scheme xcrypto.Scheme, ownerKey xcrypto.PublicKey) bool {
	b := transport.AcquireBuf()
	b.B = rt.appendSignedBytes(b.B)
	ok := scheme.Verify(ownerKey, b.B, rt.Sig)
	b.Release()
	return ok
}

// Clone returns a deep copy of the table, for a caller that is about to
// change it. Nil and empty slices stay what they were, so the copy encodes
// byte for byte like the original.
func (rt RoutingTable) Clone() RoutingTable {
	out := rt
	out.Fingers = slices.Clone(rt.Fingers)
	out.FingerExps = slices.Clone(rt.FingerExps)
	out.Successors = slices.Clone(rt.Successors)
	out.Predecessors = slices.Clone(rt.Predecessors)
	out.Sig = slices.Clone(rt.Sig)
	return out
}
