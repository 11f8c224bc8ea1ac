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

// Items returns the number of routing items carried by the table.
func (rt RoutingTable) Items() int {
	return len(rt.Fingers) + len(rt.Successors) + len(rt.Predecessors)
}

// WireSize returns the exact serialized size of the table, derived from the
// real wire encoding (codec.go). Unsigned tables (the Chord/Halo baselines)
// simply carry an empty signature field.
func (rt RoutingTable) WireSize() int {
	w := transport.NewCountingWriter()
	EncodeTable(w, rt)
	return w.Len()
}

// All returns every peer in the table (fingers, successors, predecessors) in
// a freshly allocated slice.
func (rt RoutingTable) All() []Peer {
	out := make([]Peer, 0, rt.Items())
	out = append(out, rt.Fingers...)
	out = append(out, rt.Successors...)
	out = append(out, rt.Predecessors...)
	return out
}

// signedBytes is the canonical byte encoding covered by the table signature.
func (rt RoutingTable) signedBytes() []byte {
	// Exact, so the buffer never regrows (sign and verify each build it once
	// per table): three 8-byte header words, a tag and a count per peer
	// list, the exponent count, and 16 bytes per peer.
	buf := make([]byte, 0, 24+3*2+1+16*rt.Items()+len(rt.FingerExps))
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(rt.Owner.ID))
	put(uint64(rt.Owner.Addr))
	put(uint64(rt.Timestamp))
	putPeers := func(tag byte, ps []Peer) {
		buf = append(buf, tag, byte(len(ps)))
		for _, p := range ps {
			put(uint64(p.ID))
			put(uint64(p.Addr))
		}
	}
	putPeers(1, rt.Fingers)
	buf = append(buf, byte(len(rt.FingerExps)))
	buf = append(buf, rt.FingerExps...)
	putPeers(2, rt.Successors)
	putPeers(3, rt.Predecessors)
	return buf
}

// Sign attaches the owner's signature to the table.
func (rt *RoutingTable) Sign(scheme xcrypto.Scheme, kp xcrypto.KeyPair) error {
	sig, err := scheme.Sign(kp, rt.signedBytes())
	if err != nil {
		return err
	}
	rt.Sig = sig
	return nil
}

// VerifySig checks the table signature against the owner's public key.
func (rt RoutingTable) VerifySig(scheme xcrypto.Scheme, ownerKey xcrypto.PublicKey) bool {
	return scheme.Verify(ownerKey, rt.signedBytes(), rt.Sig)
}

// clonePeers copies a peer slice (tables cross node boundaries, and on the
// in-process simulator messages are passed by reference, so state must never
// be aliased).
func clonePeers(ps []Peer) []Peer {
	if ps == nil {
		return nil
	}
	out := make([]Peer, len(ps))
	copy(out, ps)
	return out
}

// Clone returns a deep copy of the table.
func (rt RoutingTable) Clone() RoutingTable {
	out := rt
	out.Fingers = clonePeers(rt.Fingers)
	out.Successors = clonePeers(rt.Successors)
	out.Predecessors = clonePeers(rt.Predecessors)
	if rt.FingerExps != nil {
		out.FingerExps = append([]uint8(nil), rt.FingerExps...)
	}
	if rt.Sig != nil {
		out.Sig = append([]byte(nil), rt.Sig...)
	}
	return out
}
