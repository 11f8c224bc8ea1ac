package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
)

// Codec is the wire codec: a big-endian field list run in one of three
// modes. Every method takes a pointer to the field it codes. A writer
// appends the field to its buffer, a counter only adds up the bytes a writer
// would append (so Message.Size() is derived from the encoding itself,
// without allocating), and a reader reads the next input bytes into the
// field. A message's Code method, written once, is therefore its encoder,
// its size and its decoder.
//
// Writers and counters only read through the pointers they are given:
// messages are shared between goroutines, and encoding one must not write
// to it. A reader's error is sticky: after the first failure every read
// leaves its field as it was and Err reports the cause.
type Codec struct {
	mode mode
	b    []byte // writer: the output; reader: the input
	off  int    // reader: bytes consumed
	n    int    // counter: bytes counted
	err  error
}

type mode uint8

const (
	writing mode = iota // the zero Codec writes into a fresh buffer
	counting
	reading
)

// NewReader returns a Codec that decodes b.
func NewReader(b []byte) *Codec { return &Codec{mode: reading, b: b} }

// Counting reports whether c only counts bytes, so that a field list may
// count a run of fixed-width fields in one step.
func (c *Codec) Counting() bool { return c.mode == counting }

// Decoding reports whether c reads its fields from input.
func (c *Codec) Decoding() bool { return c.mode == reading }

// Bytes returns a writer's output.
func (c *Codec) Bytes() []byte { return c.b }

// Err returns a reader's first decode error, if any.
func (c *Codec) Err() error { return c.err }

// Remaining reports the number of input bytes a reader has not read.
func (c *Codec) Remaining() int { return len(c.b) - c.off }

// Fail marks a reader's input as corrupt (structural validation failures).
func (c *Codec) Fail() {
	if c.err == nil {
		c.err = ErrCorrupt
	}
}

// field returns the k bytes of the next field: a zeroed slot appended to a
// writer's output, or the next k input bytes of a reader. A counter counts
// k and gets nil, as does a reader that has failed or runs short.
func (c *Codec) field(k int) []byte {
	switch c.mode {
	case counting:
		c.n += k
		return nil
	case reading:
		if c.err != nil {
			return nil
		}
		if k > c.Remaining() {
			c.err = ErrShortBuffer
			return nil
		}
		c.off += k
		return c.b[c.off-k : c.off]
	}
	n := len(c.b)
	c.b = slices.Grow(c.b, k)[:n+k]
	clear(c.b[n:]) // a pooled buffer holds stale bytes
	return c.b[n:]
}

// fixed codes the low k bytes of v big-endian and returns the field's
// value: v itself when writing or counting, or when a reader has failed;
// the bytes read otherwise. Callers store it only when reading, so writing
// and counting never write through their pointer.
func (c *Codec) fixed(v uint64, k int) uint64 {
	if c.mode == counting {
		c.n += k // kept inlinable: Size() counts every field of every delivered message
		return v
	}
	return c.transfer(v, k)
}

// transfer writes or reads a fixed-width field for fixed.
func (c *Codec) transfer(v uint64, k int) uint64 {
	if c.mode == writing {
		// Append all eight bytes with v's low k at the front, keep k.
		c.b = binary.BigEndian.AppendUint64(c.b, v<<(64-8*k))[:len(c.b)+k]
		return v
	}
	b := c.field(k)
	if b == nil {
		return v
	}
	v = 0
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if v := c.fixed(uint64(*p), 1); c.mode == reading {
		*p = uint8(v)
	}
}

// U16 codes a big-endian uint16.
func (c *Codec) U16(p *uint16) {
	if v := c.fixed(uint64(*p), 2); c.mode == reading {
		*p = uint16(v)
	}
}

// U32 codes a big-endian uint32.
func (c *Codec) U32(p *uint32) {
	if v := c.fixed(uint64(*p), 4); c.mode == reading {
		*p = uint32(v)
	}
}

// U64 codes a big-endian uint64.
func (c *Codec) U64(p *uint64) {
	if v := c.fixed(*p, 8); c.mode == reading {
		*p = v
	}
}

// I64 codes a big-endian int64 (two's complement).
func (c *Codec) I64(p *int64) {
	if v := c.fixed(uint64(*p), 8); c.mode == reading {
		*p = int64(v)
	}
}

// Duration codes a time.Duration as its nanosecond count.
func (c *Codec) Duration(p *time.Duration) { c.I64((*int64)(p)) }

// ID codes a ring identifier in 8 bytes.
func (c *Codec) ID(p *id.ID) { c.U64((*uint64)(p)) }

// Addr codes a transport address in 6 bytes, the width of a real IPv4:port
// endpoint, as address+1 so that NoAddr round-trips.
func (c *Codec) Addr(p *Addr) {
	if v := c.fixed(uint64(int64(*p)+1), 6); c.mode == reading {
		*p = Addr(int64(v) - 1)
	}
}

// Bool codes a boolean as one byte, written as 1 or 0; a reader takes any
// nonzero byte as true.
func (c *Codec) Bool(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if v = c.fixed(v, 1); c.mode == reading {
		*p = v != 0
	}
}

// Flags codes up to eight booleans as the bits of one byte, the first as
// bit 0. A reader ignores the bits it has no field for.
func (c *Codec) Flags(bits ...*bool) {
	var v uint64
	for i, b := range bits {
		if *b {
			v |= 1 << i
		}
	}
	if v = c.fixed(v, 1); c.mode == reading {
		for i, b := range bits {
			*b = v&(1<<i) != 0
		}
	}
}

// Bytes16 codes a byte string behind a uint16 length. A reader copies the
// bytes out of its input and leaves the field as it was for length 0 (nil in
// a message being decoded), so optional fields such as signatures
// round-trip exactly.
func (c *Codec) Bytes16(p *[]byte) {
	n := uint16(len(*p))
	c.U16(&n)
	switch b := c.field(int(n)); {
	case len(b) == 0:
	case c.mode == reading:
		*p = bytes.Clone(b)
	default:
		copy(b, *p)
	}
}

// String16 codes a string behind a uint16 length, as Bytes16 codes bytes.
func (c *Codec) String16(p *string) {
	n := uint16(len(*p))
	c.U16(&n)
	switch b := c.field(int(n)); {
	case len(b) == 0:
	case c.mode == reading:
		*p = string(b)
	default:
		copy(b, *p)
	}
}

// Pad codes k zero bytes, reserving a fixed-width field whose content the
// model does not carry (such as the per-layer AES-CTR IV of onion
// encryption). A reader skips them.
func (c *Codec) Pad(k int) { c.field(k) }

// Count codes the uint16 element count of a list and returns it: n when
// writing or counting, the decoded count when reading. minSize is the
// fewest bytes one element encodes in; a reader whose remaining input
// cannot hold the decoded count fails, so a hostile count allocates nothing.
func (c *Codec) Count(n, minSize int) int {
	v := uint16(n)
	c.U16(&v)
	if c.mode == reading && int(v)*minSize > c.Remaining() {
		c.Fail()
		return 0
	}
	return int(v)
}

// List codes a slice as its Count followed by each element through elem.
// A reader makes the slice only for a nonzero count, so a decoded empty
// list stays as the field was: nil, unless Present set it.
func List[T any](c *Codec, p *[]T, minSize int, elem func(*Codec, *T)) {
	n := c.Count(len(*p), minSize)
	if c.mode == reading && n > 0 {
		*p = make([]T, n)
	}
	for i := range *p {
		elem(c, &(*p)[i])
	}
}

// Present codes the presence flag of an optional list, so that nil and
// empty lists round-trip distinctly, and reports whether the list is there.
// A reader sets a present list to empty, not nil, before its elements.
func Present[T any](c *Codec, p *[]T) bool {
	var v uint64
	if *p != nil {
		v = 1
	}
	if c.fixed(v, 1) == 0 { // coded as Bool codes it
		return false
	}
	if *p == nil {
		*p = []T{}
	}
	return true
}

// Nested codes a whole frame, type code and payload, behind a uint32
// length, as a field of another message (onion payloads, relayed
// responses). A nil message, or one without a registered codec, has length
// 0, which a reader decodes as nil. A nested frame must fill its length
// exactly.
func (c *Codec) Nested(p *Message) {
	switch m, _ := (*p).(Wire); c.mode {
	case counting:
		c.n += 4
		if m != nil {
			c.frame(m)
		}
	case writing:
		at := len(c.b)
		c.b = append(c.b, 0, 0, 0, 0)
		if m != nil {
			c.frame(m)
		}
		binary.BigEndian.PutUint32(c.b[at:], uint32(len(c.b)-at-4))
	default:
		var n uint32
		c.U32(&n)
		if n == 0 || c.err != nil {
			return
		}
		if int(n) > c.Remaining() {
			c.err = ErrShortBuffer
			return
		}
		end, all := c.off+int(n), c.b
		c.b = c.b[:end]
		*p = c.decodeFrame()
		if c.err == nil && c.off != end {
			c.Fail()
		}
		c.b = all
	}
}

// Elem codes a message as an element of another message's list: its
// payload, without a type code.
func Elem[M Wire](c *Codec, p *M) {
	if m := (*p).Code(c); m != nil {
		*p = m.(M)
	}
}

// maxPooledBuf bounds the buffer capacity a released writer (or frame pool
// entry) keeps: a rare oversized message must not pin megabytes inside the
// pool forever.
const maxPooledBuf = 64 << 10

var (
	writerPool = sync.Pool{New: func() any { return &Codec{b: make([]byte, 0, 512)} }}
	readerPool = sync.Pool{New: func() any { return new(Codec) }}
)

// AcquireWriter returns an empty pooled writer. Release it when the encoded
// bytes have been consumed; the backing buffer is recycled.
func AcquireWriter() *Codec {
	c := writerPool.Get().(*Codec)
	c.mode, c.b = writing, c.b[:0]
	return c
}

// AcquireReader returns a pooled reader over b.
func AcquireReader(b []byte) *Codec {
	c := readerPool.Get().(*Codec)
	c.mode, c.b, c.off, c.err = reading, b, 0, nil
	return c
}

// Release returns c to its pool. A writer's Bytes() become invalid: they
// alias the recycled buffer. Messages a reader decoded stay valid: every
// decode copies out of the input.
func (c *Codec) Release() {
	if c.mode == reading {
		c.b = nil
		readerPool.Put(c)
		return
	}
	if cap(c.b) > maxPooledBuf {
		c.b = nil
	}
	writerPool.Put(c)
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
	// ErrUnknownType means the frame's type code is not registered.
	ErrUnknownType = errors.New("transport: unknown wire type")
	// ErrNotWire means the message type has no registered codec.
	ErrNotWire = errors.New("transport: message type not codec-registered")
	// ErrCorrupt means a decoded value violates a structural invariant.
	ErrCorrupt = errors.New("transport: corrupt frame")
)

// frameHeaderSize is the per-message framing overhead: the uint16 type code.
const frameHeaderSize = 2

// Wire is a Message with a registered binary encoding. Every protocol
// message in internal/chord, internal/core and internal/store implements it.
type Wire interface {
	Message
	// WireType returns the message's registered type code.
	WireType() uint16
	// Code is the message's codec: it runs every payload field (everything
	// after the type code) through c in wire order and returns
	// Decoded(c, &m). Writing and counting read the fields of m; reading
	// starts from the registered zero value and fills them.
	Code(c *Codec) Wire
}

// Decoded ends every Code method. It returns *m, the message whose fields c
// has just read, when c is a reader, and nil otherwise, so that writing and
// counting never copy m into an interface.
func Decoded[M Wire](c *Codec, m *M) Wire {
	if c.mode != reading {
		return nil
	}
	return *m
}

var registry = map[uint16]Wire{}

// Register adds message types to the wire registry under their WireType
// codes; each argument is the zero value a reader starts from. It is called
// from package init functions; a code registered twice panics, which
// surfaces code-allocation clashes at program start.
func Register(zeros ...Wire) {
	for _, m := range zeros {
		code := m.WireType()
		if _, dup := registry[code]; dup {
			panic(fmt.Sprintf("transport: duplicate wire type 0x%04x", code))
		}
		registry[code] = m
	}
}

// frame codes m's type code and payload.
func (c *Codec) frame(m Wire) {
	code := m.WireType()
	c.U16(&code)
	m.Code(c)
}

// decodeFrame reads one [type code][payload] frame.
func (c *Codec) decodeFrame() Wire {
	var code uint16
	c.U16(&code)
	if c.err != nil {
		return nil
	}
	zero, ok := registry[code]
	if !ok {
		c.err = fmt.Errorf("%w: 0x%04x", ErrUnknownType, code)
		return nil
	}
	return zero.Code(c)
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
	return bytes.Clone(b), nil
}

// EncodeTo appends the self-describing frame for m to dst and returns the
// extended slice. It allocates nothing when dst has capacity, which makes it
// the zero-alloc Encode for callers that own a reusable buffer.
func EncodeTo(dst []byte, m Message) ([]byte, error) {
	wm, ok := m.(Wire)
	if !ok {
		return dst, fmt.Errorf("%w: %T", ErrNotWire, m)
	}
	c := writerPool.Get().(*Codec)
	own := c.b // dst belongs to the caller; park the pooled buffer meanwhile
	c.mode, c.b = writing, dst
	c.frame(wm)
	out := c.b
	c.b = own
	writerPool.Put(c)
	return out, nil
}

// Decode parses a frame produced by Encode and returns the reconstructed
// message (a value of the registered concrete type). The message never
// aliases b: byte fields are copied, so b may be recycled immediately.
func Decode(b []byte) (Wire, error) {
	r := AcquireReader(b)
	defer r.Release()
	return DecodeBorrowed(r)
}

// DecodeBorrowed parses one frame from the rest of a pooled reader,
// copying exactly as Decode does.
func DecodeBorrowed(r *Codec) (Wire, error) {
	m := r.decodeFrame()
	if r.err != nil {
		return nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return m, nil
}

// EncodedSize returns the exact frame size Encode would produce, computed by
// running the message's Code in counting mode. Protocol messages implement
// Size() by delegating here, so bandwidth accounting always equals the real
// serialized size. It allocates nothing: the counter is pooled (it escapes
// through Code, and Size() runs twice per delivered message), and the type
// parameter lets a value-receiver Size() pass its message on without boxing
// it into an interface again.
func EncodedSize[M Wire](m M) int {
	c := writerPool.Get().(*Codec)
	c.mode, c.n = counting, frameHeaderSize
	m.Code(c)
	n := c.n
	writerPool.Put(c) // AcquireWriter and EncodeTo reset the mode themselves
	return n
}
