package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Codec primitives: a big-endian Writer/Reader pair over byte slices. The
// Writer doubles as a size counter (countOnly mode) so Message.Size() can be
// derived from the real encoding without allocating.

// Writer serializes wire primitives. The zero value writes into a fresh
// buffer; NewCountingWriter only tallies lengths.
type Writer struct {
	b         []byte
	n         int
	countOnly bool
}

// NewCountingWriter returns a Writer that discards bytes and only counts
// them. Used to derive Size() from the encoding.
func NewCountingWriter() *Writer { return &Writer{countOnly: true} }

// Counting reports whether w only tallies lengths, so an encoder may add a
// fixed-width run in one step (Pad) instead of walking it.
func (w *Writer) Counting() bool { return w.countOnly }

// Len returns the number of bytes written (or counted).
func (w *Writer) Len() int {
	if w.countOnly {
		return w.n
	}
	return len(w.b)
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.b }

func (w *Writer) grow(k int) []byte {
	n := len(w.b)
	if cap(w.b) < n+k {
		// Manual doubling instead of append(w.b, make([]byte, k)...): the
		// extension must be reachable without a throwaway slice, and pooled
		// buffers are reused so stale bytes must be cleared explicitly.
		c := cap(w.b) * 2
		if c < n+k {
			c = n + k
		}
		if c < 64 {
			c = 64
		}
		nb := make([]byte, n, c)
		copy(nb, w.b)
		w.b = nb
	}
	w.b = w.b[:n+k]
	p := w.b[n:]
	clear(p)
	return p
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	if w.countOnly {
		w.n++
		return
	}
	w.b = append(w.b, v)
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a big-endian uint16.
func (w *Writer) U16(v uint16) {
	if w.countOnly {
		w.n += 2
		return
	}
	p := w.grow(2)
	p[0], p[1] = byte(v>>8), byte(v)
}

// U32 writes a big-endian uint32.
func (w *Writer) U32(v uint32) {
	if w.countOnly {
		w.n += 4
		return
	}
	p := w.grow(4)
	p[0], p[1], p[2], p[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// U48 writes the low 48 bits of v big-endian — the width of a real IPv4:port
// endpoint, used for transport addresses.
func (w *Writer) U48(v uint64) {
	if w.countOnly {
		w.n += 6
		return
	}
	p := w.grow(6)
	p[0], p[1], p[2] = byte(v>>40), byte(v>>32), byte(v>>24)
	p[3], p[4], p[5] = byte(v>>16), byte(v>>8), byte(v)
}

// U64 writes a big-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.countOnly {
		w.n += 8
		return
	}
	p := w.grow(8)
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (56 - 8*i))
	}
}

// I64 writes a big-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Duration writes a time.Duration as its nanosecond count.
func (w *Writer) Duration(d time.Duration) { w.I64(int64(d)) }

// Addr writes a transport address in 6 bytes. NoAddr round-trips.
func (w *Writer) Addr(a Addr) { w.U48(uint64(int64(a) + 1)) }

// Bytes16 writes a length-prefixed (uint16) byte string.
func (w *Writer) Bytes16(p []byte) {
	w.U16(uint16(len(p)))
	w.Raw(p)
}

// Raw writes p verbatim.
func (w *Writer) Raw(p []byte) {
	if w.countOnly {
		w.n += len(p)
		return
	}
	w.b = append(w.b, p...)
}

// Pad writes k zero bytes (used to model fixed-width fields such as the
// per-layer AES-CTR IV of onion encryption).
func (w *Writer) Pad(k int) {
	if w.countOnly {
		w.n += k
		return
	}
	w.grow(k)
}

// maxPooledBuf bounds the buffer capacity a released Writer (or frame pool
// entry) keeps: a rare oversized message must not pin megabytes inside the
// pool forever.
const maxPooledBuf = 64 << 10

var writerPool = sync.Pool{New: func() any { return &Writer{b: make([]byte, 0, 512)} }}

// AcquireWriter returns an empty pooled Writer. Release it when the encoded
// bytes have been consumed; the backing buffer is recycled.
func AcquireWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.b = w.b[:0]
	w.n = 0
	w.countOnly = false
	return w
}

// Release returns w to the pool. The slice previously returned by Bytes()
// becomes invalid: it aliases the recycled buffer.
func (w *Writer) Release() {
	if cap(w.b) > maxPooledBuf {
		w.b = nil
	}
	writerPool.Put(w)
}

var bufPool = sync.Pool{New: func() any { return new(Buf) }}

// Buf is a pooled byte buffer — the carrier transports use for encoded
// frames on their hot paths: acquire, encode into B, hand the Buf across the
// delivery machinery, Release once the bytes are decoded (Decode copies, so
// the decoded message never aliases B). A Buf that is never released is
// merely garbage-collected.
type Buf struct{ B []byte }

// AcquireBuf returns an empty pooled buffer.
func AcquireBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// Release returns b to the pool; b.B becomes invalid.
func (b *Buf) Release() {
	if cap(b.B) > maxPooledBuf {
		b.B = nil
	}
	bufPool.Put(b)
}

// EncodeBuf encodes m into a pooled buffer: Encode without the copy-out.
// The caller owns the returned Buf and must Release it after the bytes are
// consumed.
func EncodeBuf(m Message) (*Buf, error) {
	b := AcquireBuf()
	out, err := EncodeTo(b.B, m)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.B = out
	return b, nil
}

// Codec errors.
var (
	// ErrShortBuffer means a decode ran past the end of the input.
	ErrShortBuffer = errors.New("transport: short buffer")
	// ErrUnknownType means the frame's type code has no registered decoder.
	ErrUnknownType = errors.New("transport: unknown wire type")
	// ErrNotWire means the message type has no registered codec.
	ErrNotWire = errors.New("transport: message type not codec-registered")
	// ErrCorrupt means a decoded value violates a structural invariant.
	ErrCorrupt = errors.New("transport: corrupt frame")
)

// Reader decodes wire primitives with a sticky error: after the first
// failure every read returns zero values and Err() reports the cause.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// AcquireReader returns a pooled Reader over b. Release it when the decoded
// data is no longer needed; until then b must stay unchanged.
func AcquireReader(b []byte) *Reader {
	r := readerPool.Get().(*Reader)
	r.b, r.off, r.err = b, 0, nil
	return r
}

// Release returns r to the pool. Decoded messages stay valid: every decode
// copies out of the input.
func (r *Reader) Release() {
	r.b = nil
	readerPool.Put(r)
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail marks the reader as corrupt (structural validation failures).
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

func (r *Reader) take(k int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+k > len(r.b) {
		r.err = ErrShortBuffer
		return nil
	}
	p := r.b[r.off : r.off+k]
	r.off += k
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return uint16(p[0])<<8 | uint16(p[1])
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}

// U48 reads a 6-byte big-endian unsigned integer.
func (r *Reader) U48() uint64 {
	p := r.take(6)
	if p == nil {
		return 0
	}
	var v uint64
	for _, c := range p {
		v = v<<8 | uint64(c)
	}
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	var v uint64
	for _, c := range p {
		v = v<<8 | uint64(c)
	}
	return v
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Duration reads a nanosecond count.
func (r *Reader) Duration() time.Duration { return time.Duration(r.I64()) }

// Addr reads a 6-byte transport address.
func (r *Reader) Addr() Addr { return Addr(int64(r.U48()) - 1) }

// Bytes16 reads a length-prefixed byte string. It returns nil for length 0
// so optional fields (signatures) round-trip exactly. The result is a copy.
func (r *Reader) Bytes16() []byte {
	n := int(r.U16())
	p := r.take(n)
	if p == nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Raw reads a copy of k bytes without a length prefix (fixed-width fields);
// nil on short buffer or k == 0.
func (r *Reader) Raw(k int) []byte {
	p := r.take(k)
	if p == nil || k == 0 {
		return nil
	}
	out := make([]byte, k)
	copy(out, p)
	return out
}

// Skip discards k bytes (fixed pads).
func (r *Reader) Skip(k int) { r.take(k) }

// frameHeaderSize is the per-message framing overhead: the uint16 type code.
const frameHeaderSize = 2

// Wire is a Message with a registered binary encoding. Every protocol
// message in internal/chord and internal/core implements it.
type Wire interface {
	Message
	// WireType returns the message's registered type code.
	WireType() uint16
	// EncodePayload appends the message body (everything after the type
	// code) to w.
	EncodePayload(w *Writer)
}

// decoder reconstructs a message payload. It must consume exactly the bytes
// EncodePayload produced.
type decoder = func(r *Reader) Wire

var decoders = map[uint16]decoder{}

// RegisterType installs the payload decoder for a wire type code. It is
// called from package init functions; duplicate registrations panic, which
// surfaces code-allocation clashes at program start.
func RegisterType(code uint16, dec func(r *Reader) Wire) {
	if _, dup := decoders[code]; dup {
		panic(fmt.Sprintf("transport: duplicate wire type 0x%04x", code))
	}
	decoders[code] = dec
}

// Encode serializes a message into a self-describing frame:
// [uint16 type code][payload]. It fails for messages without a registered
// codec. The returned slice is freshly allocated; encoding itself runs in a
// pooled buffer, so the exact-size copy out is the only allocation.
func Encode(m Message) ([]byte, error) {
	w := AcquireWriter()
	defer w.Release()
	b, err := EncodeTo(w.b, m)
	if err != nil {
		return nil, err
	}
	w.b = b // keep the (possibly regrown) buffer pooled
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// EncodeTo appends the self-describing frame for m to dst and returns the
// extended slice. It allocates nothing when dst has capacity, which makes it
// the zero-alloc Encode for callers that own a reusable buffer.
func EncodeTo(dst []byte, m Message) ([]byte, error) {
	wm, ok := m.(Wire)
	if !ok {
		return dst, fmt.Errorf("%w: %T", ErrNotWire, m)
	}
	w := writerPool.Get().(*Writer)
	own := w.b // dst belongs to the caller; park the pooled buffer meanwhile
	w.b, w.countOnly = dst, false
	w.U16(wm.WireType())
	wm.EncodePayload(w)
	out := w.b
	w.b = own
	writerPool.Put(w)
	return out, nil
}

// Decode parses a frame produced by Encode and returns the reconstructed
// message (a value of the registered concrete type). The message never
// aliases b: byte fields are copied, so b may be recycled immediately.
func Decode(b []byte) (Wire, error) {
	r := AcquireReader(b)
	defer r.Release()
	return r.decodeAll()
}

// DecodeBorrowed parses one frame from the remainder of a pooled Reader,
// copying exactly as Decode does.
func DecodeBorrowed(r *Reader) (Wire, error) { return r.decodeAll() }

func (r *Reader) decodeAll() (Wire, error) {
	m := decodeFrame(r)
	if r.err != nil {
		return nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return m, nil
}

// decodeFrame reads one [type][payload] frame from r.
func decodeFrame(r *Reader) Wire {
	code := r.U16()
	if r.Err() != nil {
		return nil
	}
	dec, ok := decoders[code]
	if !ok {
		r.err = fmt.Errorf("%w: 0x%04x", ErrUnknownType, code)
		return nil
	}
	return dec(r)
}

// EncodedSize returns the exact frame size Encode would produce, computed by
// running the encoder in counting mode. Protocol messages implement Size() by
// delegating here, so bandwidth accounting always equals the real serialized
// size. It allocates nothing: the Writer is pooled (it escapes through the
// encoder, and Size() runs twice per delivered message), and the type
// parameter lets a value-receiver Size() pass its message on without boxing
// it into an interface again.
func EncodedSize[M Wire](m M) int {
	w := writerPool.Get().(*Writer)
	w.n, w.countOnly = 0, true
	m.EncodePayload(w)
	n := w.n
	writerPool.Put(w) // AcquireWriter and EncodeTo reset the mode themselves
	return frameHeaderSize + n
}

// EncodeNested writes a framed message as a length-prefixed field inside
// another message (onion payloads, relayed responses). A nil message writes
// length 0.
func EncodeNested(w *Writer, m Message) {
	if m == nil {
		w.U32(0)
		return
	}
	wm, ok := m.(Wire)
	if !ok {
		// Unencodable nested payloads become empty frames; Size() and
		// Encode stay consistent because both paths take this branch.
		w.U32(0)
		return
	}
	if w.countOnly {
		w.n += 4 + frameHeaderSize // length prefix + type code
		wm.EncodePayload(w)
		return
	}
	// Reserve the length slot, encode, then patch.
	at := len(w.b)
	w.U32(0)
	w.U16(wm.WireType())
	wm.EncodePayload(w)
	n := len(w.b) - at - 4
	w.b[at] = byte(n >> 24)
	w.b[at+1] = byte(n >> 16)
	w.b[at+2] = byte(n >> 8)
	w.b[at+3] = byte(n)
}

// DecodeNested reads a field written by EncodeNested. A zero length yields
// nil.
func DecodeNested(r *Reader) Wire {
	n := int(r.U32())
	if r.Err() != nil || n == 0 {
		return nil
	}
	p := r.take(n)
	if p == nil {
		return nil
	}
	sub := NewReader(p)
	m := decodeFrame(sub)
	if sub.Err() != nil {
		r.err = sub.Err()
		return nil
	}
	if sub.Remaining() != 0 {
		r.Fail()
		return nil
	}
	return m
}
