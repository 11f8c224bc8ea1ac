package nettransport

import (
	"bufio"
	"net"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// TestRequestIDsUnguessable has node A call a ring member C sixteen times,
// and C reads their request ids off the wire. A then calls B, which never
// answers. A process holding no slot dials A and writes 10⁴ responses in B's
// name: the first values of a counter from 1, and the neighbours of every id
// C saw. None may complete the pending call; a last response carrying the id
// read off B's socket must.
func TestRequestIDsUnguessable(t *testing.T) {
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	lnA, lnB, lnC := listen(), listen(), listen()
	const a, b, c = transport.Addr(0), transport.Addr(1), transport.Addr(2)
	tr, err := New(Config{Listener: lnA, Endpoints: []string{lnA.Addr().String(), lnB.Addr().String(), lnC.Addr().String()}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// readIDs accepts A's link to ln and reads the ids of n request frames.
	readIDs := func(ln net.Listener, n int) []uint64 {
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		ids := make([]uint64, n)
		for i := range ids {
			h, fb, err := readFrameBuf(br, DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			fb.Release()
			ids[i] = h.reqID
		}
		return ids
	}

	const seen = 16
	for range seen {
		tr.Call(a, c, transporttest.Echo{}, time.Minute, func(transport.Message, error) {})
	}
	ids := readIDs(lnC, seen)
	got := make(chan transport.Message, 1)
	tr.Call(a, b, transporttest.Echo{}, time.Minute, func(m transport.Message, err error) {
		if err == nil {
			got <- m
		}
	})
	pending := readIDs(lnB, 1)[0]

	var guesses []uint64
	for _, id := range ids {
		for d := uint64(1); d <= 156; d++ {
			guesses = append(guesses, id-d, id+d)
		}
	}
	for g := uint64(1); len(guesses) < 10_000; g++ {
		guesses = append(guesses, g)
	}
	inject := func(id, n uint64) []byte {
		payload, err := transport.Encode(transporttest.Echo{N: n})
		if err != nil {
			t.Fatal(err)
		}
		return appendFrame(frameResponse, b, a, id, payload)
	}
	var stream []byte
	for _, g := range guesses {
		stream = append(stream, inject(g, 1)...)
	}
	// A reads one connection's frames in order, so the response with the
	// right id is matched only after every guess has been tried.
	stream = append(stream, inject(pending, 2)...)
	conn, err := net.Dial("tcp", lnA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.(transporttest.Echo).N != 2 {
			t.Fatalf("a guessed request id completed the pending call (pending id %d, ids seen %v)", pending, ids)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the response with the pending call's id never completed it")
	}
}
