package nettransport_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// TestClientRequestBytes pins what a ClientConn puts on the wire for a
// bootstrap request: the length prefix, the header (kind request, NoAddr,
// NoAddr, request id), then transport.Encode(req). The ids are 1, 2, … in
// call order, so an admission exchange over a fresh connection sends id 1.
// The server answers each request with a response frame carrying its id.
func TestClientRequestBytes(t *testing.T) {
	reqs := []transport.Message{
		core.RingAdmitReq{ID: id.FromString("joiner"), Endpoint: "127.0.0.1:7001"},
		core.ClientLookupReq{Seq: 9, Key: id.FromString("key")},
	}
	// frame writes one bootstrap-channel frame by hand: kind 0x02 is a
	// request, 0x03 a response, and both ends of the header are NoAddr.
	frame := func(kind uint8, reqID uint64, msg transport.Message) []byte {
		payload, err := transport.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		c := &transport.Codec{}
		n, none := uint32(1+6+6+8+len(payload)), transport.NoAddr
		c.U32(&n)
		c.U8(&kind)
		c.Addr(&none)
		c.Addr(&none)
		c.U64(&reqID)
		return append(c.Bytes(), payload...)
	}
	var want, resp [][]byte
	for i, req := range reqs {
		want = append(want, frame(0x02, uint64(i+1), req))
		resp = append(resp, frame(0x03, uint64(i+1), core.RingAdmitResp{}))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, len(reqs))
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		for i := range reqs {
			b := make([]byte, len(want[i]))
			if _, err := io.ReadFull(conn, b); err != nil {
				got <- nil
				return
			}
			got <- b
			if _, err := conn.Write(resp[i]); err != nil {
				return
			}
		}
	}()

	cc, err := nettransport.DialClient(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i, req := range reqs {
		r, err := cc.Call(req, 5*time.Second)
		if err != nil {
			t.Fatalf("%T: Call: %v", req, err)
		}
		if _, ok := r.(core.RingAdmitResp); !ok {
			t.Fatalf("%T: response %T, want core.RingAdmitResp", req, r)
		}
		if b, w := <-got, want[i]; !bytes.Equal(b, w) {
			t.Errorf("%T: request frame\n got %x\nwant %x", req, b, w)
		}
	}
}
