// Package xcrypto supplies the cryptographic substrate the Octopus protocol
// depends on: signature schemes for routing-table authentication, an X.509-
// style certificate authority, onion encryption for anonymous paths, and the
// wire-size accounting from the paper's bandwidth analysis (footnote 4).
//
// Two signature schemes are provided behind one interface:
//
//   - ECDSAScheme: real ECDSA over P-256. Only the crypto test-suite and
//     the benchmark's sign/verify probes use it so far.
//   - SimScheme: a hash-based stand-in with the same 40-byte wire size.
//     Everything that builds a ring signs with it: the discrete-event
//     simulations, where millions of sign/verify operations occur, the
//     public facade (which builds through core.BuildNetwork with it) and
//     octopusd. It detects any tampering and binds content to a key
//     pair, which is the property the protocol logic relies on, but
//     anyone holding the public key can sign: the simulated adversary
//     never forges, matching the paper's assumption that ECDSA is secure.
//
// See README.md for the substitution rationale.
package xcrypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"
	"math/big"
)

// PublicKey is an opaque serialized public key.
type PublicKey []byte

// KeyPair holds a public key and the scheme-private signing state.
type KeyPair struct {
	Public  PublicKey
	private []byte
}

// Scheme abstracts signing so simulations can swap in a cheap signer with
// identical wire sizes.
type Scheme interface {
	// GenerateKey creates a fresh key pair from the given entropy source.
	GenerateKey(rng io.Reader) (KeyPair, error)
	// Sign produces a signature binding msg to the key pair. Neither Sign
	// nor Verify may retain msg: callers build it in recycled buffers.
	Sign(kp KeyPair, msg []byte) ([]byte, error)
	// Verify reports whether sig is a valid signature on msg under pub.
	Verify(pub PublicKey, msg, sig []byte) bool
	// SigSize returns the accounted wire size of a signature in bytes.
	SigSize() int
}

// ErrBadKey is returned when a key pair is malformed for the scheme.
var ErrBadKey = errors.New("xcrypto: malformed key pair")

// ECDSAScheme signs with ECDSA over the P-256 curve. Signatures are encoded
// as the two 32-byte big-endian scalars r ∥ s (64 bytes on the real wire; the
// paper accounts 40 bytes for its ECDSA variant and the accounting layer uses
// the paper's figure — see wire.go).
type ECDSAScheme struct{}

var _ Scheme = ECDSAScheme{}

// GenerateKey implements Scheme.
func (ECDSAScheme) GenerateKey(rng io.Reader) (KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return KeyPair{}, err
	}
	pub := elliptic.MarshalCompressed(elliptic.P256(), priv.PublicKey.X, priv.PublicKey.Y)
	d := priv.D.Bytes()
	padded := make([]byte, 32)
	copy(padded[32-len(d):], d)
	return KeyPair{Public: pub, private: padded}, nil
}

func (ECDSAScheme) privToKey(kp KeyPair) (*ecdsa.PrivateKey, error) {
	if len(kp.private) != 32 {
		return nil, ErrBadKey
	}
	d := new(big.Int).SetBytes(kp.private)
	priv := &ecdsa.PrivateKey{D: d}
	priv.Curve = elliptic.P256()
	priv.X, priv.Y = priv.Curve.ScalarBaseMult(kp.private)
	return priv, nil
}

// Sign implements Scheme.
func (s ECDSAScheme) Sign(kp KeyPair, msg []byte) ([]byte, error) {
	priv, err := s.privToKey(kp)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(msg)
	r, sv, err := ecdsa.Sign(rand.Reader, priv, sum[:])
	if err != nil {
		return nil, err
	}
	sig := make([]byte, 64)
	rb, sb := r.Bytes(), sv.Bytes()
	copy(sig[32-len(rb):32], rb)
	copy(sig[64-len(sb):], sb)
	return sig, nil
}

// Verify implements Scheme.
func (ECDSAScheme) Verify(pub PublicKey, msg, sig []byte) bool {
	if len(sig) != 64 {
		return false
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), pub)
	if x == nil {
		return false
	}
	pk := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	sum := sha256.Sum256(msg)
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:])
	return ecdsa.Verify(pk, sum[:], r, s)
}

// SigSize implements Scheme. The accounted size follows the paper.
func (ECDSAScheme) SigSize() int { return SigWireSize }

// SimScheme is the simulation signer: Sign(msg) = SHA-256(pub ∥ msg)
// truncated to 40 bytes. Any party can verify; tampering with either the
// message or the claimed signer is detected. It is NOT unforgeable — the
// simulated adversary simply never forges, which mirrors the paper's
// assumption that signatures are secure. Never use outside simulations.
type SimScheme struct{}

var _ Scheme = SimScheme{}

// GenerateKey implements Scheme. The public key is 20 bytes, matching the
// paper's certificate accounting.
func (SimScheme) GenerateKey(rng io.Reader) (KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	seed := make([]byte, 16)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return KeyPair{}, err
	}
	sum := sha256.Sum256(seed)
	return KeyPair{Public: sum[:20], private: seed}, nil
}

// simSum hashes pub ∥ msg in one pass. The buffer stays on the stack for
// anything up to a full routing table, so neither Sign nor Verify allocates
// for the hash.
func simSum(pub PublicKey, msg []byte) [sha256.Size]byte {
	buf := make([]byte, 0, 512)
	return sha256.Sum256(append(append(buf, pub...), msg...))
}

// Sign implements Scheme: the digest padded with its own leading bytes to the
// accounted ECDSA size. The signature is the only allocation.
func (SimScheme) Sign(kp KeyPair, msg []byte) ([]byte, error) {
	if len(kp.Public) == 0 {
		return nil, ErrBadKey
	}
	sum := simSum(kp.Public, msg)
	sig := make([]byte, SigWireSize)
	n := copy(sig, sum[:])
	copy(sig[n:], sum[:])
	return sig, nil
}

// Verify implements Scheme. It allocates nothing.
func (SimScheme) Verify(pub PublicKey, msg, sig []byte) bool {
	if len(sig) != SigWireSize || len(pub) == 0 {
		return false
	}
	sum := simSum(pub, msg)
	return bytes.Equal(sig[:sha256.Size], sum[:]) &&
		bytes.Equal(sig[sha256.Size:], sum[:SigWireSize-sha256.Size])
}

// SigSize implements Scheme.
func (SimScheme) SigSize() int { return SigWireSize }
