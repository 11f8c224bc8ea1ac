package xcrypto

import "github.com/octopus-dht/octopus/internal/transport"

// Wire-layout constants of the real binary codec (internal/transport). The
// seed implementation carried the paper's hand-computed accounting (§7,
// footnote 4) here; since the codec refactor every message size is derived
// from its actual encoding, and these constants describe that encoding.
const (
	// KeyIDWireSize is the encoded size of a ring identifier (uint64).
	KeyIDWireSize = 8
	// AddrWireSize is the encoded size of a node address: 6 bytes, the
	// width of an IPv4:port endpoint.
	AddrWireSize = 6
	// RoutingItemWireSize is the encoded size of one routing-state item
	// (a finger, successor, or predecessor entry): ID plus endpoint.
	RoutingItemWireSize = KeyIDWireSize + AddrWireSize
	// TimestampWireSize is the encoded size of the timestamp attached to
	// every signed routing table (nanoseconds, int64).
	TimestampWireSize = 8
	// SigWireSize is the byte length of a SimScheme signature (the paper
	// accounts 40 bytes for its ECDSA variant; ECDSAScheme emits 64-byte
	// r ∥ s signatures — signatures travel length-prefixed, so both fit).
	SigWireSize = 40
	// AESBlockSize is the AES-128 block size used by onion layers.
	AESBlockSize = 16
	// KeyWireSize is the encoded size of one AES-128 onion key.
	KeyWireSize = 16
)

// OnionWireOverhead returns the per-layer overhead of onion encryption that
// the relay-message codec (internal/core) reserves on the wire: the next-hop
// endpoint plus one AES block, the IV of the AES-CTR layer it models. The
// AES-GCM layer xcrypto.Build seals is 12 B larger (a 12-byte nonce and a
// 16-byte tag in place of the IV); ROADMAP item 2 re-prices the reservation
// when onions go on the wire.
func OnionWireOverhead(layers int) int {
	return layers * (AddrWireSize + AESBlockSize)
}

// CodeCertificate codes a certificate through c. Certificates are
// self-contained on the wire: identity, endpoint, public key, expiry, and
// the CA signature, each length-prefixed where variable.
func CodeCertificate(c *transport.Codec, cert *Certificate) {
	c.ID(&cert.Node)
	c.I64(&cert.Addr)
	c.Bytes16((*[]byte)(&cert.Key))
	c.Duration(&cert.Expiry)
	c.Bytes16(&cert.Sig)
}
