package nettransport

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"github.com/octopus-dht/octopus/internal/transport"
)

// TCP framing: every message travels as one length-prefixed frame
//
//	uint32  length   — bytes that follow (header + codec frame)
//	uint8   kind     — frameOneway | frameRequest | frameResponse
//	6 bytes from     — source address (transport.Codec.Addr encoding)
//	6 bytes to       — destination address
//	uint64  reqID    — RPC correlation id; 0 for one-way sends
//	[]byte  payload  — the self-describing codec frame (transport.Encode)
//
// All integers are big-endian: the header is one field list (frameHeader.code)
// on the message codec, so the framing layer and the message layer share one
// set of encoding rules. docs/PROTOCOL.md is the written form of this
// contract.

// Frame kinds.
const (
	frameOneway   = 0x01 // no response expected
	frameRequest  = 0x02 // expects a frameResponse with the same reqID
	frameResponse = 0x03 // answers the frameRequest with the same reqID
)

// frameHeaderSize is the fixed header inside the length prefix:
// kind (1) + from (6) + to (6) + reqID (8).
const frameHeaderSize = 1 + 6 + 6 + 8

// DefaultMaxFrame bounds a single frame (header + payload). The largest
// legitimate Octopus messages are ProofResp/WalkSeedResp table batches, well
// under a megabyte; the bound exists so a corrupt or hostile length prefix
// cannot make the reader allocate unbounded memory.
const DefaultMaxFrame = 8 << 20

// Framing errors.
var (
	// errFrameTooLarge means a length prefix exceeded the configured bound.
	errFrameTooLarge = errors.New("nettransport: frame exceeds size limit")
	// errFrameTooSmall means a length prefix cannot even hold the header.
	errFrameTooSmall = errors.New("nettransport: frame shorter than header")
	// errBadKind means the frame kind byte is not a known value.
	errBadKind = errors.New("nettransport: unknown frame kind")
)

// frameHeader is the decoded fixed header of one frame.
type frameHeader struct {
	kind  uint8
	from  transport.Addr
	to    transport.Addr
	reqID uint64
}

// code codes the fixed header; writing and reading share this one list.
func (h *frameHeader) code(c *transport.Codec) {
	c.U8(&h.kind)
	c.Addr(&h.from)
	c.Addr(&h.to)
	c.U64(&h.reqID)
}

// frameFor encodes msg as one complete wire frame in a pooled buffer —
// length prefix, header, and codec payload in a single encoding pass, no
// intermediate payload slice. It returns the frame and the codec-payload
// size (what traffic accounting counts). The caller owns the Buf.
func frameFor(kind uint8, from, to transport.Addr, reqID uint64, msg transport.Message) (*transport.Buf, int, error) {
	fb := transport.AcquireBuf()
	w := transport.AcquireWriter()
	// Header with a zero length placeholder, patched once the payload size
	// is known.
	var length uint32
	w.U32(&length)
	h := frameHeader{kind, from, to, reqID}
	h.code(w)
	b, err := transport.EncodeTo(append(fb.B, w.Bytes()...), msg)
	w.Release()
	if err != nil {
		fb.Release()
		return nil, 0, err
	}
	n := len(b) - 4
	b[0], b[1], b[2], b[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	fb.B = b
	return fb, n - frameHeaderSize, nil
}

// readFrameBuf reads one frame from br into a pooled buffer. The payload is
// fb.B[frameHeaderSize:]; the caller must Release fb once the payload is
// consumed (the stream may carry back-to-back frames, each into its own
// buffer). io.EOF is returned verbatim on a clean end of stream between
// frames; any other error (short read, oversized or undersized length,
// unknown kind) means the stream is unusable and the connection must be
// dropped.
func readFrameBuf(br *bufio.Reader, max int) (frameHeader, *transport.Buf, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		// io.EOF only when zero bytes were read (a clean close between
		// frames); a stream cut mid-prefix surfaces io.ErrUnexpectedEOF,
		// which the caller counts as a protocol error.
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("nettransport: truncated length prefix: %w", err)
		}
		return frameHeader{}, nil, err
	}
	n := int(uint32(lenBuf[0])<<24 | uint32(lenBuf[1])<<16 | uint32(lenBuf[2])<<8 | uint32(lenBuf[3]))
	if n < frameHeaderSize {
		return frameHeader{}, nil, fmt.Errorf("%w: %d bytes", errFrameTooSmall, n)
	}
	if n > max {
		return frameHeader{}, nil, fmt.Errorf("%w: %d > %d bytes", errFrameTooLarge, n, max)
	}
	fb := transport.AcquireBuf()
	if cap(fb.B) < n {
		fb.B = make([]byte, n)
	} else {
		fb.B = fb.B[:n]
	}
	if _, err := io.ReadFull(br, fb.B); err != nil {
		fb.Release()
		return frameHeader{}, nil, fmt.Errorf("nettransport: truncated frame: %w", err)
	}
	var h frameHeader
	r := transport.AcquireReader(fb.B)
	h.code(r)
	r.Release()
	if h.kind != frameOneway && h.kind != frameRequest && h.kind != frameResponse {
		fb.Release()
		return frameHeader{}, nil, fmt.Errorf("%w: 0x%02x", errBadKind, h.kind)
	}
	return h, fb, nil
}
