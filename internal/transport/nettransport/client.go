package nettransport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
)

// ClientConn is a bootstrap-channel connection: one TCP dial, any number of
// request/response exchanges. It is the client side of a daemon's 0x05xx
// serving path and of an `octopusd -join` admission (docs/PROTOCOL.md §7);
// a lookup client keeps one open for a whole session, a joiner dials one
// for its single RingAdmitReq. Calls are matched to responses by request
// id, and the daemon answers one connection's requests in order, so a
// ClientConn is also the unit of per-client queueing on the server.
//
// A ClientConn is safe for concurrent use; calls are serialized on the
// connection.
type ClientConn struct {
	mu     sync.Mutex // serializes Calls; Close deliberately bypasses it
	conn   net.Conn
	br     *bufio.Reader
	nextID uint64
	closed atomic.Bool
}

// DialClient connects to a serving daemon's endpoint.
func DialClient(endpoint string, timeout time.Duration) (*ClientConn, error) {
	c, err := net.DialTimeout("tcp", endpoint, timeout)
	if err != nil {
		return nil, err
	}
	return &ClientConn{conn: c, br: bufio.NewReaderSize(c, 64<<10), nextID: 1}, nil
}

// Close shuts the connection; an in-flight Call fails immediately (its
// blocked read errors out). Close does NOT take the Call mutex — it would
// otherwise wait behind the very read it is supposed to interrupt.
func (c *ClientConn) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// Call sends one bootstrap request and blocks for its response, up to
// timeout. The connection is poisoned (closed) on framing errors; callers
// should redial.
func (c *ClientConn) Call(req transport.Message, timeout time.Duration) (transport.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("nettransport: client connection closed")
	}
	id := c.nextID
	fb, _, err := frameFor(frameRequest, transport.NoAddr, transport.NoAddr, id, req)
	if err != nil {
		return nil, err
	}
	c.nextID++
	c.conn.SetDeadline(time.Now().Add(timeout))
	_, err = c.conn.Write(fb.B)
	fb.Release()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("nettransport: client write: %w", err)
	}
	for {
		h, fb, err := readFrameBuf(c.br, DefaultMaxFrame)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("nettransport: client read: %w", err)
		}
		if h.kind != frameResponse || h.reqID != id {
			fb.Release()
			continue // stale response from an abandoned earlier call
		}
		// Decode copies every field out, so the buffer can go back now.
		resp, err := transport.Decode(fb.B[frameHeaderSize:])
		fb.Release()
		return resp, err
	}
}
