package transport

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
)

// primitives holds one field of every Codec primitive.
type primitives struct {
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	I64    int64
	D      time.Duration
	ID     id.ID
	Addr   Addr
	Blob   []byte
	Str    string
	Flag   bool
	Hi, Lo bool
}

func (f *primitives) code(c *Codec) {
	c.U8(&f.U8)
	c.U16(&f.U16)
	c.U32(&f.U32)
	c.U64(&f.U64)
	c.I64(&f.I64)
	c.Duration(&f.D)
	c.ID(&f.ID)
	c.Addr(&f.Addr)
	c.Bytes16(&f.Blob)
	c.String16(&f.Str)
	c.Bool(&f.Flag)
	c.Flags(&f.Hi, &f.Lo)
	c.Pad(7)
}

// TestPrimitiveRoundTrips runs one field list of every primitive through a
// writer, a counter and a reader with random values.
func TestPrimitiveRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		want := primitives{
			U8:   uint8(rng.Uint32()),
			U16:  uint16(rng.Uint32()),
			U32:  rng.Uint32(),
			U64:  rng.Uint64(),
			I64:  rng.Int63() - rng.Int63(),
			D:    time.Duration(rng.Int63()),
			ID:   id.ID(rng.Uint64()),
			Addr: Addr(rng.Int31()),
			Str:  string(rune('a' + rng.Intn(26))),
			Flag: rng.Intn(2) == 0,
			Hi:   rng.Intn(2) == 0,
			Lo:   rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 {
			want.Addr, want.Str = NoAddr, ""
		}
		if n := rng.Intn(64); n > 0 {
			want.Blob = make([]byte, n)
			rng.Read(want.Blob)
		}

		w := &Codec{}
		want.code(w)
		// The counter must agree byte-for-byte with the writer.
		c := &Codec{mode: counting}
		want.code(c)
		if c.n != len(w.Bytes()) {
			t.Fatalf("counted length %d != written length %d", c.n, len(w.Bytes()))
		}

		var got primitives
		r := NewReader(w.Bytes())
		got.code(r)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("err=%v remaining=%d after full read", r.Err(), r.Remaining())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	var v uint64
	r.U64(&v)
	if r.Err() != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Sticky: subsequent reads stay failed and leave their fields alone.
	var x uint16
	if r.U16(&x); x != 0 || r.Err() != ErrShortBuffer {
		t.Fatalf("sticky error violated: %d, %v", x, r.Err())
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
func (m poolMsg) Code(c *Codec) Wire {
	c.U64(&m.A)
	c.Bytes16(&m.Blob)
	return Decoded(c, &m)
}

func init() { Register(poolMsg{}) }

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
	v := uint64(0x1122334455667788)
	w.U64(&v)
	w.Release()
	_ = (poolMsg{}).Size() // leaves a pooled Codec in counting mode
	for i := 0; i < 8; i++ {
		w := AcquireWriter()
		if len(w.Bytes()) != 0 {
			t.Fatalf("acquired writer not empty: len=%d", len(w.Bytes()))
		}
		x := uint16(i)
		w.U16(&x)
		if got := w.Bytes(); len(got) != 2 {
			t.Fatalf("pooled writer in count-only mode: Bytes()=%v", got)
		}
		w.Release()
	}

	// An oversized buffer must not be parked in the pool.
	big := AcquireWriter()
	big.Pad(maxPooledBuf + 1)
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
