package nettransport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"github.com/octopus-dht/octopus/internal/transport"
)

// appendFrame builds a complete wire frame (length prefix included) around
// raw payload bytes, which need not be a codec frame.
func appendFrame(kind uint8, from, to transport.Addr, reqID uint64, payload []byte) []byte {
	c, n := &transport.Codec{}, uint32(frameHeaderSize+len(payload))
	c.U32(&n)
	h := frameHeader{kind, from, to, reqID}
	h.code(c)
	return append(c.Bytes(), payload...)
}

// TestFrameRoundTrip drives appendFrame → readFrameBuf with random headers
// and payloads.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []uint8{frameOneway, frameRequest, frameResponse}
	for i := 0; i < 300; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		from := transport.Addr(rng.Int31n(1 << 20))
		to := transport.Addr(rng.Int31n(1 << 20))
		if rng.Intn(8) == 0 {
			from = transport.NoAddr
		}
		reqID := rng.Uint64()
		payload := make([]byte, rng.Intn(512))
		rng.Read(payload)

		frame := appendFrame(kind, from, to, reqID, payload)
		h, fb, err := readFrameBuf(bufio.NewReader(bytes.NewReader(frame)), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("readFrameBuf: %v", err)
		}
		if h.kind != kind || h.from != from || h.to != to || h.reqID != reqID {
			t.Fatalf("header = %+v, want kind=%d from=%v to=%v reqID=%d", h, kind, from, to, reqID)
		}
		if got := fb.B[frameHeaderSize:]; !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(payload))
		}
		fb.Release()
	}
}

// TestFrameReaderRejects pins the reader's failure modes: oversized and
// undersized length prefixes, truncation, unknown kinds, and clean EOF.
func TestFrameReaderRejects(t *testing.T) {
	read := func(b []byte, max int) error {
		_, fb, err := readFrameBuf(bufio.NewReader(bytes.NewReader(b)), max)
		if err == nil {
			fb.Release()
		}
		return err
	}
	valid := appendFrame(frameRequest, 1, 2, 3, []byte("payload"))

	if err := read(nil, DefaultMaxFrame); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	if err := read(valid[:3], DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("partial length prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := read(valid[:10], DefaultMaxFrame); err == nil || err == io.EOF {
		t.Errorf("truncated body: err = %v, want a framing error", err)
	}
	if err := read(valid, 8); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized frame: err = %v, want errFrameTooLarge", err)
	}
	small := []byte{0, 0, 0, 4, 1, 2, 3, 4}
	if err := read(small, DefaultMaxFrame); !errors.Is(err, errFrameTooSmall) {
		t.Errorf("undersized frame: err = %v, want errFrameTooSmall", err)
	}
	bad := appendFrame(frameRequest, 1, 2, 3, nil)
	bad[4] = 0x77 // corrupt the kind byte
	if err := read(bad, DefaultMaxFrame); !errors.Is(err, errBadKind) {
		t.Errorf("unknown kind: err = %v, want errBadKind", err)
	}
}

// TestReadBackToBackFrames pins what write coalescing relies on: a batch
// on the wire is nothing but concatenated frames, so a reader looping on
// one bufio.Reader recovers every frame in order and then sees a clean
// io.EOF exactly on the boundary. Exercises the pooled readFrameBuf path
// directly, re-acquiring a fresh buffer per frame the way serveConn does.
func TestReadBackToBackFrames(t *testing.T) {
	type sent struct {
		kind     uint8
		from, to transport.Addr
		reqID    uint64
		payload  []byte
	}
	rng := rand.New(rand.NewSource(7))
	kinds := []uint8{frameOneway, frameRequest, frameResponse}
	var stream []byte
	var want []sent
	for i := 0; i < 64; i++ {
		s := sent{
			kind:    kinds[rng.Intn(len(kinds))],
			from:    transport.Addr(rng.Int31n(1 << 20)),
			to:      transport.Addr(rng.Int31n(1 << 20)),
			reqID:   rng.Uint64(),
			payload: make([]byte, rng.Intn(256)),
		}
		rng.Read(s.payload)
		stream = append(stream, appendFrame(s.kind, s.from, s.to, s.reqID, s.payload)...)
		want = append(want, s)
	}

	br := bufio.NewReader(bytes.NewReader(stream))
	for i, s := range want {
		h, fb, err := readFrameBuf(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: readFrameBuf: %v", i, err)
		}
		if h.kind != s.kind || h.from != s.from || h.to != s.to || h.reqID != s.reqID {
			t.Fatalf("frame %d: header = %+v, want %+v", i, h, s)
		}
		if !bytes.Equal(fb.B[frameHeaderSize:], s.payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		fb.Release()
	}
	if _, _, err := readFrameBuf(br, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want clean io.EOF on the batch boundary", err)
	}

	// A batch cut mid-frame (a short write before a crash) must surface a
	// framing error, not a clean EOF, for every non-boundary cut point.
	for _, cut := range []int{2, 6, len(stream) - 1} {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		var err error
		for err == nil {
			_, _, err = readFrameBuf(br, DefaultMaxFrame)
		}
		if err == io.EOF {
			t.Errorf("cut at %d: truncated final frame read as clean EOF", cut)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the length-prefixed reader: it
// must never panic and never allocate past the configured frame bound.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(appendFrame(frameOneway, 0, 1, 0, []byte("seed")))
	f.Add(appendFrame(frameResponse, transport.NoAddr, 5, 1<<40, nil))
	// Batch-shaped seeds: coalesced writes put concatenated frames and, on
	// a crashed peer, partial trailing frames in front of the reader.
	batch := append(appendFrame(frameRequest, 1, 2, 3, []byte("first")),
		appendFrame(frameResponse, 2, 1, 3, []byte("second"))...)
	f.Add(batch)
	f.Add(batch[:len(batch)-4])                                    // batch cut mid-final-frame
	f.Add(append(batch[:len(batch):len(batch)], 0, 0, 0, 2))       // trailing undersized prefix
	f.Add(append(batch[:len(batch):len(batch)], 0xFF, 0xFF, 0xFF)) // trailing partial prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 16
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			h, fb, err := readFrameBuf(br, max)
			if err != nil {
				return // any error terminates the stream; that's the contract
			}
			if len(fb.B) > max {
				t.Fatalf("frame %d bytes exceeds max %d", len(fb.B), max)
			}
			fb.Release()
			if h.kind != frameOneway && h.kind != frameRequest && h.kind != frameResponse {
				t.Fatalf("invalid kind 0x%02x escaped validation", h.kind)
			}
		}
	})
}
