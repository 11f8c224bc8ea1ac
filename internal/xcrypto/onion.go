package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"io"
)

// Onion encryption (§4.1): a query is wrapped in one AES-128-GCM layer per
// relay so that each relay learns only its predecessor and successor on the
// path. The forward onion is built by the initiator and peeled hop by hop;
// the reply is wrapped hop by hop and unwrapped by the initiator. GCM
// authenticates each layer, so Peel refuses a layer in which any bit was
// flipped by a party without the layer's key.

// Onion layer wire layout, after decryption with the relay's key:
//
//	next hop address  int64  (8 bytes; ExitHop terminates the path)
//	payload length    uint32 (4 bytes)
//	payload           variable
//
// The sealed layer is the 12-byte GCM nonce, that plaintext encrypted, and
// the 16-byte GCM tag.

// ExitHop marks the final layer of a forward onion: the holder of this layer
// is the exit relay and the payload is the cleartext query.
const ExitHop int64 = -1

const (
	onionNonceSize  = 12
	onionHeaderSize = 12
)

// Errors returned by onion operations.
var (
	ErrOnionKeySize   = errors.New("xcrypto: onion key must be 16 bytes (AES-128)")
	ErrOnionCorrupt   = errors.New("xcrypto: onion layer corrupt, truncated or tampered with")
	ErrOnionEmptyPath = errors.New("xcrypto: onion path must contain at least one relay")
)

// NewOnionKey draws a fresh AES-128 key from rng.
func NewOnionKey(rng io.Reader) ([]byte, error) {
	k := make([]byte, 16)
	if _, err := io.ReadFull(rng, k); err != nil {
		return nil, err
	}
	return k, nil
}

func layerAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != 16 {
		return nil, ErrOnionKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// encryptLayer produces nonce ∥ GCM(key, nonce, next ∥ len ∥ payload).
func encryptLayer(key []byte, next int64, payload []byte, rng io.Reader) ([]byte, error) {
	aead, err := layerAEAD(key)
	if err != nil {
		return nil, err
	}
	n := onionNonceSize + onionHeaderSize + len(payload)
	out := make([]byte, n, n+aead.Overhead())
	nonce, plain := out[:onionNonceSize], out[onionNonceSize:]
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(plain[0:8], uint64(next))
	binary.BigEndian.PutUint32(plain[8:12], uint32(len(payload)))
	copy(plain[onionHeaderSize:], payload)
	return aead.Seal(nonce, nonce, plain, nil), nil // sealed in place
}

// Build constructs a forward onion for the given path. keys[i] is shared
// with the i-th relay and nexts[i] is the address that relay must forward
// the peeled onion to; the final element of nexts is normally ExitHop so the
// last relay treats the payload as the cleartext query. Layer 0 is the
// outermost (peeled by the first relay).
func Build(rng io.Reader, keys [][]byte, nexts []int64, payload []byte) ([]byte, error) {
	if len(keys) == 0 || len(keys) != len(nexts) {
		return nil, ErrOnionEmptyPath
	}
	cur := payload
	for i := len(keys) - 1; i >= 0; i-- {
		layer, err := encryptLayer(keys[i], nexts[i], cur, rng)
		if err != nil {
			return nil, err
		}
		cur = layer
	}
	return cur, nil
}

// Peel removes one layer with the relay's key, returning the next-hop
// address and the inner onion (or the cleartext payload when next ==
// ExitHop). A layer sealed under another key, or altered in any bit, fails
// with ErrOnionCorrupt.
func Peel(key, onion []byte) (next int64, inner []byte, err error) {
	aead, err := layerAEAD(key)
	if err != nil {
		return 0, nil, err
	}
	if len(onion) < onionNonceSize+onionHeaderSize+aead.Overhead() {
		return 0, nil, ErrOnionCorrupt
	}
	plain, err := aead.Open(nil, onion[:onionNonceSize], onion[onionNonceSize:], nil)
	if err != nil {
		return 0, nil, ErrOnionCorrupt
	}
	next = int64(binary.BigEndian.Uint64(plain[0:8]))
	if n := binary.BigEndian.Uint32(plain[8:12]); int(n) != len(plain)-onionHeaderSize {
		return 0, nil, ErrOnionCorrupt
	}
	return next, plain[onionHeaderSize:], nil
}

// WrapReply adds one reply layer; relays apply it on the response's way back
// to the initiator.
func WrapReply(rng io.Reader, key, payload []byte) ([]byte, error) {
	return encryptLayer(key, ExitHop, payload, rng)
}

// UnwrapReply removes the reply layers added by the relays listed first-hop
// first, returning the cleartext response.
func UnwrapReply(keys [][]byte, data []byte) ([]byte, error) {
	// Replies accumulate layers from the exit back toward the initiator,
	// so the FIRST relay's layer is outermost.
	for _, key := range keys {
		_, inner, err := Peel(key, data)
		if err != nil {
			return nil, err
		}
		data = inner
	}
	return data, nil
}
