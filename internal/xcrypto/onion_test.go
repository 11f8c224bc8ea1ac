package xcrypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func onionKeys(t *testing.T, rng *rand.Rand, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		k, err := NewOnionKey(rng)
		if err != nil {
			t.Fatalf("NewOnionKey: %v", err)
		}
		keys[i] = k
	}
	return keys
}

func TestOnionFourRelayPath(t *testing.T) {
	// The Octopus query path of Fig. 1(b): I → A → B → Ci → Di → exit.
	rng := rand.New(rand.NewSource(1))
	keys := onionKeys(t, rng, 4)
	nexts := []int64{11, 12, 13, ExitHop}
	payload := []byte("GET_ROUTING_TABLE")

	onion, err := Build(rng, keys, nexts, payload)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	cur := onion
	for i, key := range keys {
		next, inner, err := Peel(key, cur)
		if err != nil {
			t.Fatalf("Peel layer %d: %v", i, err)
		}
		if next != nexts[i] {
			t.Errorf("layer %d next = %d, want %d", i, next, nexts[i])
		}
		cur = inner
	}
	if !bytes.Equal(cur, payload) {
		t.Errorf("peeled payload = %q, want %q", cur, payload)
	}
}

func TestOnionSingleLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := onionKeys(t, rng, 1)
	onion, err := Build(rng, keys, []int64{ExitHop}, []byte("q"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	next, inner, err := Peel(keys[0], onion)
	if err != nil || next != ExitHop || !bytes.Equal(inner, []byte("q")) {
		t.Errorf("Peel = (%d, %q, %v)", next, inner, err)
	}
}

func TestOnionWrongKeyCorrupts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := onionKeys(t, rng, 2)
	wrong := onionKeys(t, rng, 1)[0]
	onion, _ := Build(rng, keys, []int64{5, ExitHop}, []byte("payload"))
	if _, _, err := Peel(wrong, onion); !errors.Is(err, ErrOnionCorrupt) {
		t.Errorf("peel with the wrong key: err = %v, want ErrOnionCorrupt", err)
	}
}

// TestOnionTamperedLayerRefused flips one bit in each byte of a two-relay
// onion in turn, as a party holding no key can: the first relay's Peel
// must refuse every one of them.
func TestOnionTamperedLayerRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	keys := onionKeys(t, rng, 2)
	onion, err := Build(rng, keys, []int64{7, ExitHop}, []byte("lookup key 42"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := range onion {
		tampered := bytes.Clone(onion)
		tampered[i] ^= 1 << (i % 8)
		if _, _, err := Peel(keys[0], tampered); !errors.Is(err, ErrOnionCorrupt) {
			t.Fatalf("bit flipped in byte %d of %d: err = %v, want ErrOnionCorrupt", i, len(onion), err)
		}
	}
}

// TestOnionInnerTamperedByRelayRefused lets the first relay peel its own
// layer and then flip one bit in each byte of what it forwards: holding
// one layer's key gives no way to alter the next, so the second relay
// refuses every copy.
func TestOnionInnerTamperedByRelayRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	keys := onionKeys(t, rng, 3)
	onion, err := Build(rng, keys, []int64{7, 8, ExitHop}, []byte("lookup key 42"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	_, inner, err := Peel(keys[0], onion)
	if err != nil {
		t.Fatalf("Peel: %v", err)
	}
	for i := range inner {
		tampered := bytes.Clone(inner)
		tampered[i] ^= 1 << (i % 8)
		if _, _, err := Peel(keys[1], tampered); !errors.Is(err, ErrOnionCorrupt) {
			t.Fatalf("bit flipped in byte %d of %d: err = %v, want ErrOnionCorrupt", i, len(inner), err)
		}
	}
}

func TestOnionTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := onionKeys(t, rng, 1)
	if _, _, err := Peel(keys[0], []byte("short")); !errors.Is(err, ErrOnionCorrupt) {
		t.Errorf("err = %v, want ErrOnionCorrupt", err)
	}
	onion, _ := Build(rng, keys, []int64{ExitHop}, []byte("payload"))
	if _, _, err := Peel(keys[0], onion[:len(onion)-3]); !errors.Is(err, ErrOnionCorrupt) {
		t.Errorf("truncated onion: err = %v, want ErrOnionCorrupt", err)
	}
}

func TestOnionEmptyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := Build(rng, nil, nil, []byte("p")); !errors.Is(err, ErrOnionEmptyPath) {
		t.Errorf("err = %v, want ErrOnionEmptyPath", err)
	}
	if _, err := Build(rng, make([][]byte, 2), make([]int64, 3), nil); !errors.Is(err, ErrOnionEmptyPath) {
		t.Errorf("mismatched lengths: err = %v, want ErrOnionEmptyPath", err)
	}
}

func TestOnionBadKeySize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := Build(rng, [][]byte{make([]byte, 7)}, []int64{ExitHop}, []byte("p")); !errors.Is(err, ErrOnionKeySize) {
		t.Errorf("err = %v, want ErrOnionKeySize", err)
	}
}

func TestReplyWrapUnwrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := onionKeys(t, rng, 3)
	resp := []byte("routing table bytes")

	// The exit's reply passes relay 2, then 1, then 0; each wraps a layer.
	data := resp
	for i := len(keys) - 1; i >= 0; i-- {
		var err error
		data, err = WrapReply(rng, keys[i], data)
		if err != nil {
			t.Fatalf("WrapReply: %v", err)
		}
	}
	got, err := UnwrapReply(keys, data)
	if err != nil {
		t.Fatalf("UnwrapReply: %v", err)
	}
	if !bytes.Equal(got, resp) {
		t.Errorf("unwrapped = %q, want %q", got, resp)
	}
}

func TestOnionLayerHidesInnerPath(t *testing.T) {
	// A single relay must not be able to see addresses beyond its own
	// next hop: the inner onion bytes must not contain the plaintext
	// next-next address. We check that two builds with different inner
	// routes are indistinguishable in length and that inner bytes differ
	// from the equivalent plaintext.
	rng := rand.New(rand.NewSource(8))
	keys := onionKeys(t, rng, 3)
	a, _ := Build(rng, keys, []int64{1, 2, ExitHop}, []byte("samepayload"))
	b, _ := Build(rng, keys, []int64{1, 9999, ExitHop}, []byte("samepayload"))
	if len(a) != len(b) {
		t.Errorf("onions with different routes have different sizes: %d vs %d", len(a), len(b))
	}
}

func TestPropOnionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := onionKeys(t, rng, 2)
	f := func(payload []byte, hop uint16) bool {
		nexts := []int64{int64(hop), ExitHop}
		onion, err := Build(rng, keys, nexts, payload)
		if err != nil {
			return false
		}
		n1, inner, err := Peel(keys[0], onion)
		if err != nil || n1 != int64(hop) {
			return false
		}
		n2, got, err := Peel(keys[1], inner)
		if err != nil || n2 != ExitHop {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOnionLayerSize pins what one sealed layer adds: the 12-byte nonce,
// the 12-byte header and the 16-byte GCM tag. The nonce and tag together
// are 12 B more than the one AES block of IV that OnionWireOverhead
// reserves for the CTR layer it models.
func TestOnionLayerSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payload := []byte("GET_ROUTING_TABLE")
	const perLayer = onionNonceSize + onionHeaderSize + 16
	for k := 1; k <= 4; k++ {
		keys := onionKeys(t, rng, k)
		nexts := make([]int64, k)
		nexts[k-1] = ExitHop
		onion, err := Build(rng, keys, nexts, payload)
		if err != nil {
			t.Fatalf("Build(%d layers): %v", k, err)
		}
		if got, want := len(onion), len(payload)+k*perLayer; got != want {
			t.Errorf("%d layers: onion is %d B, want %d", k, got, want)
		}
	}
	if got, want := perLayer-onionHeaderSize, AESBlockSize+12; got != want {
		t.Errorf("nonce and tag take %d B per layer, want %d (the CTR IV's %d + 12)", got, want, AESBlockSize)
	}
}

// TestOnionNoncesFresh builds the same onion twice from one source and
// checks that no two layers share a nonce: GCM under one key and a repeated
// nonce gives away the XOR of the two plaintexts and the means to forge
// tags.
func TestOnionNoncesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	keys := onionKeys(t, rng, 4)
	nexts := []int64{11, 12, 13, ExitHop}
	seen := map[string]bool{}
	var onions [][]byte
	for round := 0; round < 2; round++ {
		onion, err := Build(rng, keys, nexts, []byte("same query"))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		onions = append(onions, onion)
		cur := onion
		for i, key := range keys {
			nonce := string(cur[:onionNonceSize])
			if seen[nonce] {
				t.Fatalf("round %d layer %d reuses nonce %x", round, i, nonce)
			}
			seen[nonce] = true
			if _, cur, err = Peel(key, cur); err != nil {
				t.Fatalf("Peel layer %d: %v", i, err)
			}
		}
	}
	if bytes.Equal(onions[0], onions[1]) {
		t.Error("two builds of one query are byte-identical")
	}
}

// TestOnionCiphertextHidesPayload checks what TestOnionLayerHidesInnerPath
// only implies: neither the query nor the encoding of a hop beyond the
// first relay's own appears in the bytes a relay receives.
func TestOnionCiphertextHidesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := onionKeys(t, rng, 3)
	const hidden = int64(0x0123456789abcdef)
	payload := []byte("the target key of this lookup")
	onion, err := Build(rng, keys, []int64{1, hidden, ExitHop}, payload)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	_, inner, err := Peel(keys[0], onion)
	if err != nil {
		t.Fatalf("Peel: %v", err)
	}
	var hop [8]byte
	binary.BigEndian.PutUint64(hop[:], uint64(hidden))
	for name, b := range map[string][]byte{"onion": onion, "first relay's inner onion": inner} {
		if bytes.Contains(b, payload) {
			t.Errorf("%s carries the query in clear", name)
		}
		if bytes.Contains(b, hop[:]) {
			t.Errorf("%s carries the second relay's next hop in clear", name)
		}
	}
}

// TestOnionResizedRefused cuts a sealed layer to every shorter length and
// adds a byte at either end: Peel refuses each with ErrOnionCorrupt.
func TestOnionResizedRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	keys := onionKeys(t, rng, 2)
	onion, err := Build(rng, keys, []int64{3, ExitHop}, []byte("payload"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for n := 0; n < len(onion); n++ {
		if _, _, err := Peel(keys[0], onion[:n]); !errors.Is(err, ErrOnionCorrupt) {
			t.Fatalf("onion cut to %d of %d B: err = %v, want ErrOnionCorrupt", n, len(onion), err)
		}
	}
	for name, b := range map[string][]byte{
		"appended":  append(bytes.Clone(onion), 0),
		"prepended": append([]byte{0}, onion...),
	} {
		if _, _, err := Peel(keys[0], b); !errors.Is(err, ErrOnionCorrupt) {
			t.Errorf("byte %s: err = %v, want ErrOnionCorrupt", name, err)
		}
	}
}

// TestOnionLengthMismatchRefused seals, under the right key, a layer whose
// length field disagrees with its payload: the tag verifies, and the
// header check alone must refuse it.
func TestOnionLengthMismatchRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	key := onionKeys(t, rng, 1)[0]
	aead, err := layerAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload")
	for _, claimed := range []uint32{0, uint32(len(payload)) - 1, uint32(len(payload)) + 1, ^uint32(0)} {
		plain := make([]byte, onionHeaderSize+len(payload))
		binary.BigEndian.PutUint64(plain[0:8], 5)
		binary.BigEndian.PutUint32(plain[8:12], claimed)
		copy(plain[onionHeaderSize:], payload)
		nonce := make([]byte, onionNonceSize)
		rng.Read(nonce)
		layer := aead.Seal(bytes.Clone(nonce), nonce, plain, nil)
		if _, _, err := Peel(key, layer); !errors.Is(err, ErrOnionCorrupt) {
			t.Errorf("length field %d for a %d-byte payload: err = %v, want ErrOnionCorrupt", claimed, len(payload), err)
		}
	}
}

// TestOnionPeelOutOfOrderRefused gives the whole onion to the second relay:
// holding a later layer's key opens nothing ahead of its turn.
func TestOnionPeelOutOfOrderRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	keys := onionKeys(t, rng, 3)
	onion, err := Build(rng, keys, []int64{1, 2, ExitHop}, []byte("payload"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := 1; i < len(keys); i++ {
		if _, _, err := Peel(keys[i], onion); !errors.Is(err, ErrOnionCorrupt) {
			t.Errorf("relay %d peeled the outer layer: err = %v, want ErrOnionCorrupt", i, err)
		}
	}
}

// TestOnionNextHopExtremes round-trips next-hop values at the edges of
// int64, which the header stores as a uint64.
func TestOnionNextHopExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys := onionKeys(t, rng, 2)
	for _, hop := range []int64{0, 1, math.MaxInt64, math.MinInt64, ExitHop - 1} {
		onion, err := Build(rng, keys, []int64{hop, ExitHop}, []byte("q"))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		next, _, err := Peel(keys[0], onion)
		if err != nil || next != hop {
			t.Errorf("next hop %d came back as (%d, %v)", hop, next, err)
		}
	}
}

// TestReplyTamperedRefused flips one bit in each byte of a reply wrapped by
// three relays: the initiator's UnwrapReply refuses every copy.
func TestReplyTamperedRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	keys := onionKeys(t, rng, 3)
	data := []byte("routing table bytes")
	for i := len(keys) - 1; i >= 0; i-- {
		var err error
		if data, err = WrapReply(rng, keys[i], data); err != nil {
			t.Fatalf("WrapReply: %v", err)
		}
	}
	for i := range data {
		tampered := bytes.Clone(data)
		tampered[i] ^= 1 << (i % 8)
		if _, err := UnwrapReply(keys, tampered); !errors.Is(err, ErrOnionCorrupt) {
			t.Fatalf("bit flipped in byte %d of %d: err = %v, want ErrOnionCorrupt", i, len(data), err)
		}
	}
}

// TestReplyUnwrapOrderMatters unwraps a three-layer reply with the relays'
// keys listed exit first instead of first hop first.
func TestReplyUnwrapOrderMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	keys := onionKeys(t, rng, 3)
	data := []byte("routing table bytes")
	for i := len(keys) - 1; i >= 0; i-- {
		var err error
		if data, err = WrapReply(rng, keys[i], data); err != nil {
			t.Fatalf("WrapReply: %v", err)
		}
	}
	reversed := [][]byte{keys[2], keys[1], keys[0]}
	if _, err := UnwrapReply(reversed, data); !errors.Is(err, ErrOnionCorrupt) {
		t.Errorf("keys in reverse order: err = %v, want ErrOnionCorrupt", err)
	}
}

func BenchmarkOnionBuild4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 4)
	for i := range keys {
		keys[i], _ = NewOnionKey(rng)
	}
	nexts := []int64{1, 2, 3, ExitHop}
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(rng, keys, nexts, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnionPeel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 4)
	for i := range keys {
		keys[i], _ = NewOnionKey(rng)
	}
	onion, _ := Build(rng, keys, []int64{1, 2, 3, ExitHop}, make([]byte, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Peel(keys[0], onion); err != nil {
			b.Fatal(err)
		}
	}
}
