package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// TestPrimitiveRoundTrips drives every Writer/Reader primitive pair with
// random values.
func TestPrimitiveRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		u8 := uint8(rng.Uint32())
		u16 := uint16(rng.Uint32())
		u32 := rng.Uint32()
		u48 := rng.Uint64() & ((1 << 48) - 1)
		u64 := rng.Uint64()
		i64 := rng.Int63() - rng.Int63()
		d := time.Duration(rng.Int63())
		addr := Addr(rng.Int31())
		if rng.Intn(8) == 0 {
			addr = NoAddr
		}
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		var blob []byte
		if len(b) > 0 {
			blob = b
		}
		flag := rng.Intn(2) == 0

		w := &Writer{}
		w.U8(u8)
		w.U16(u16)
		w.U32(u32)
		w.U48(u48)
		w.U64(u64)
		w.I64(i64)
		w.Duration(d)
		w.Addr(addr)
		w.Bytes16(blob)
		w.Bool(flag)
		w.Pad(7)

		// The counting writer must agree byte-for-byte with the real one.
		c := NewCountingWriter()
		c.U8(u8)
		c.U16(u16)
		c.U32(u32)
		c.U48(u48)
		c.U64(u64)
		c.I64(i64)
		c.Duration(d)
		c.Addr(addr)
		c.Bytes16(blob)
		c.Bool(flag)
		c.Pad(7)
		if c.Len() != w.Len() {
			t.Fatalf("counting writer length %d != real length %d", c.Len(), w.Len())
		}

		r := NewReader(w.Bytes())
		if got := r.U8(); got != u8 {
			t.Fatalf("u8 %d != %d", got, u8)
		}
		if got := r.U16(); got != u16 {
			t.Fatalf("u16 %d != %d", got, u16)
		}
		if got := r.U32(); got != u32 {
			t.Fatalf("u32 %d != %d", got, u32)
		}
		if got := r.U48(); got != u48 {
			t.Fatalf("u48 %d != %d", got, u48)
		}
		if got := r.U64(); got != u64 {
			t.Fatalf("u64 %d != %d", got, u64)
		}
		if got := r.I64(); got != i64 {
			t.Fatalf("i64 %d != %d", got, i64)
		}
		if got := r.Duration(); got != d {
			t.Fatalf("duration %v != %v", got, d)
		}
		if got := r.Addr(); got != addr {
			t.Fatalf("addr %v != %v", got, addr)
		}
		if got := r.Bytes16(); !bytes.Equal(got, blob) {
			t.Fatalf("bytes16 %v != %v", got, blob)
		}
		if got := r.Bool(); got != flag {
			t.Fatalf("bool %v != %v", got, flag)
		}
		r.Skip(7)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("err=%v remaining=%d after full read", r.Err(), r.Remaining())
		}
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.U64()
	if r.Err() != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Sticky: subsequent reads stay failed and return zero values.
	if got := r.U16(); got != 0 || r.Err() != ErrShortBuffer {
		t.Fatalf("sticky error violated: %d, %v", got, r.Err())
	}
}

type unregistered struct{}

func (unregistered) Size() int { return 0 }

func TestEncodeRejectsNonWireMessages(t *testing.T) {
	if _, err := Encode(unregistered{}); err == nil {
		t.Fatal("Encode accepted a message without a codec")
	}
}

func TestDecodeRejectsUnknownTypeAndTrailingBytes(t *testing.T) {
	if _, err := Decode([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("Decode accepted an unknown type code")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode accepted an empty frame")
	}
}

// poolMsg is a registered test type for the pooled encode/decode paths
// (0x7FF0, inside the 0x7Fxx test-reserved range).
type poolMsg struct {
	A    uint64
	Blob []byte
}

func (m poolMsg) Size() int      { return EncodedSize(m) }
func (poolMsg) WireType() uint16 { return 0x7FF0 }
func (m poolMsg) EncodePayload(w *Writer) {
	w.U64(m.A)
	w.Bytes16(m.Blob)
}

func init() {
	RegisterType(0x7FF0, func(r *Reader) Wire {
		return poolMsg{A: r.U64(), Blob: r.Bytes16()}
	})
}

// TestPooledEncodePaths: Encode, EncodeTo (into a caller buffer, with and
// without spare capacity), and EncodeBuf must produce byte-identical frames,
// and EncodeTo must append after existing bytes rather than clobber them.
func TestPooledEncodePaths(t *testing.T) {
	m := poolMsg{A: 0xDEADBEEF, Blob: []byte("pooled payload")}
	want, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(want) != m.Size() {
		t.Fatalf("len(Encode) = %d != Size() %d", len(want), m.Size())
	}

	got, err := EncodeTo(nil, m)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeTo(nil): err=%v, bytes differ from Encode", err)
	}
	prefix := []byte{0xAA, 0xBB}
	got, err = EncodeTo(append([]byte(nil), prefix...), m)
	if err != nil || !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
		t.Fatalf("EncodeTo with prefix: err=%v, got %x", err, got)
	}
	// With spare capacity the returned slice must reuse it (the zero-alloc
	// contract the transports rely on).
	dst := make([]byte, 0, 256)
	got, err = EncodeTo(dst, m)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("EncodeTo(cap): err=%v", err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("EncodeTo reallocated despite sufficient capacity")
	}

	fb, err := EncodeBuf(m)
	if err != nil || !bytes.Equal(fb.B, want) {
		t.Fatalf("EncodeBuf: err=%v", err)
	}
	fb.Release()

	if _, err := EncodeTo(nil, unregistered{}); err == nil {
		t.Error("EncodeTo accepted a message without a codec")
	}
}

// TestPooledWriterReuse: acquire/release cycles must hand back clean
// writers — no stale bytes, no stale count-only mode — regardless of what
// the previous user did.
func TestPooledWriterReuse(t *testing.T) {
	w := AcquireWriter()
	w.U64(0x1122334455667788)
	w.Release()
	for i := 0; i < 8; i++ {
		w := AcquireWriter()
		if w.Len() != 0 || len(w.Bytes()) != 0 {
			t.Fatalf("acquired writer not empty: len=%d", w.Len())
		}
		w.U16(uint16(i))
		if got := w.Bytes(); len(got) != 2 {
			t.Fatalf("pooled writer in count-only mode: Bytes()=%v", got)
		}
		w.Release()
	}

	// An oversized buffer must not be parked in the pool.
	big := AcquireWriter()
	big.Raw(make([]byte, maxPooledBuf+1))
	big.Release()
	if w := AcquireWriter(); cap(w.b) > maxPooledBuf {
		t.Errorf("oversized buffer (cap %d) survived Release into the pool", cap(w.b))
	} else {
		w.Release()
	}
}

// TestDecodeCopies: Decode and DecodeBorrowed both copy byte fields out of
// the input, so overwriting the frame afterwards leaves the message intact.
func TestDecodeCopies(t *testing.T) {
	m := poolMsg{A: 7, Blob: []byte("copy me")}
	decoders := map[string]func([]byte) (Wire, error){
		"Decode": Decode,
		"DecodeBorrowed": func(b []byte) (Wire, error) {
			r := AcquireReader(b)
			defer r.Release()
			return DecodeBorrowed(r)
		},
	}
	for name, decode := range decoders {
		t.Run(name, func(t *testing.T) {
			frame, err := Encode(m)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			dec, err := decode(frame)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			clear(frame)
			if got := dec.(poolMsg); got.A != m.A || !bytes.Equal(got.Blob, m.Blob) {
				t.Errorf("%s result changed with its input: %+v, want %+v", name, got, m)
			}
		})
	}
}

// TestBufPoolDiscardsOversized: a Buf that grew beyond the pooling bound is
// released to the GC, not parked (the pool must not pin megabytes).
func TestBufPoolDiscardsOversized(t *testing.T) {
	b := AcquireBuf()
	b.B = append(b.B, make([]byte, maxPooledBuf+1)...)
	b.Release()
	b2 := AcquireBuf()
	if cap(b2.B) > maxPooledBuf {
		t.Errorf("oversized Buf (cap %d) survived Release into the pool", cap(b2.B))
	}
	b2.Release()
}

// FuzzDecode asserts the decoder never panics on arbitrary wire input —
// a malformed or malicious frame must surface as an error, not a crash.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x06})
	f.Add([]byte{0x01, 0x06, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x02, 0x01, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err == nil && m == nil {
			t.Fatal("Decode returned nil message with nil error")
		}
	})
}
