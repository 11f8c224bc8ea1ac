package nettransport_test

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// newLoopback builds a transport whose entire endpoint table points at its
// own listener: every frame — including host-to-host traffic inside the one
// process — crosses a real TCP connection through the loopback interface.
func newLoopback(t *testing.T, hosts int) *nettransport.Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	self := ln.Addr().String()
	eps := make([]string, hosts)
	for i := range eps {
		eps[i] = self
	}
	tr, err := nettransport.New(nettransport.Config{
		Listener:  ln,
		Self:      self,
		Endpoints: eps,
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("nettransport.New: %v", err)
	}
	return tr
}

// TestNetTransportConformance pins the socket backend to the same semantics
// as simnet and chantransport: the full shared suite, every frame over TCP.
func TestNetTransportConformance(t *testing.T) {
	transporttest.RunConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		tr := newLoopback(t, hosts)
		return transporttest.Harness{
			Tr:      tr,
			Advance: func(d time.Duration) { time.Sleep(d) },
			Close:   tr.Close,
		}
	})
}

// TestNetTransportChurnConformance runs the dynamic-membership suite with
// every join, leave, and suspicion probe crossing real TCP sockets.
func TestNetTransportChurnConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time churn convergence over TCP")
	}
	transporttest.RunChurnConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		tr := newLoopback(t, hosts)
		return transporttest.Harness{
			Tr:      tr,
			Advance: func(d time.Duration) { time.Sleep(d) },
			Close:   tr.Close,
		}
	})
}

// TestNetTransportLookupConformance runs the concurrent-lookup suite with
// every query of every overlapping anonymous lookup crossing real TCP.
func TestNetTransportLookupConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time lookup convergence over TCP")
	}
	transporttest.RunLookupConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		tr := newLoopback(t, hosts)
		return transporttest.Harness{
			Tr:         tr,
			Advance:    func(d time.Duration) { time.Sleep(d) },
			Close:      tr.Close,
			Concurrent: true,
		}
	})
}

// twoProcs builds two Transport instances sharing one endpoint table — the
// in-test stand-in for two OS processes (distinct listeners, distinct
// sockets; only the address space is shared). Slot 0 lives on a, slot 1 on
// b.
func twoProcs(t *testing.T) (a, b *nettransport.Transport, epB string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	eps := []string{lnA.Addr().String(), lnB.Addr().String()}
	a, err = nettransport.New(nettransport.Config{
		Listener: lnA, Self: eps[0], Endpoints: eps, Seed: 1,
		RedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("transport a: %v", err)
	}
	b, err = nettransport.New(nettransport.Config{
		Listener: lnB, Self: eps[1], Endpoints: eps, Seed: 1,
		RedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		a.Close()
		t.Fatalf("transport b: %v", err)
	}
	return a, b, eps[1]
}

type rpcResult struct {
	msg transport.Message
	err error
}

// callFrom issues one RPC from a local host and returns the outcome.
func callFrom(tr *nettransport.Transport, from, to transport.Addr,
	req transport.Message, timeout time.Duration) chan rpcResult {
	ch := make(chan rpcResult, 1)
	tr.After(from, 0, func() {
		tr.Call(from, to, req, timeout, func(m transport.Message, err error) {
			ch <- rpcResult{m, err}
		})
	})
	return ch
}

func waitRPC(t *testing.T, ch chan rpcResult, within time.Duration) rpcResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatal("rpc callback never ran")
		return rpcResult{}
	}
}

// TestCrossTransportRPC is the minimal two-"process" exchange: an RPC from
// a host on transport a to a host on transport b and back.
func TestCrossTransportRPC(t *testing.T) {
	a, b, _ := twoProcs(t)
	defer a.Close()
	defer b.Close()
	b.Bind(1, func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		e := m.(transporttest.Echo)
		return transporttest.Echo{N: e.N + 1, Payload: e.Payload}, true
	})
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	r := waitRPC(t, callFrom(a, 0, 1, transporttest.Echo{N: 41, Payload: []byte("x")}, 5*time.Second), 10*time.Second)
	if r.err != nil {
		t.Fatalf("cross-transport rpc: %v", r.err)
	}
	if e := r.msg.(transporttest.Echo); e.N != 42 {
		t.Fatalf("echo N = %d, want 42", e.N)
	}
	// Remote-bound traffic is accounted at the sender as codec bytes.
	req := transporttest.Echo{N: 41, Payload: []byte("x")}
	if st := a.Stats(0); st.BytesSent != uint64(req.Size()) || st.MsgsReceived != 1 {
		t.Errorf("caller stats = %+v, want sent=%d received msgs=1", st, req.Size())
	}
	if st := b.Stats(1); st.MsgsReceived != 1 {
		t.Errorf("callee stats = %+v, want 1 received", st)
	}
}

// TestConnectionDropMidRPC kills the responder's whole transport while a
// request is in flight; the caller must observe ErrTimeout, the same
// signal every backend uses for lost messages.
func TestConnectionDropMidRPC(t *testing.T) {
	a, b, _ := twoProcs(t)
	defer a.Close()
	gate := make(chan struct{})
	b.Bind(1, func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		close(gate) // request arrived; let the test kill us
		time.Sleep(2 * time.Second)
		return transporttest.Echo{N: 1}, true
	})
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	ch := callFrom(a, 0, 1, transporttest.Echo{N: 1}, 900*time.Millisecond)
	select {
	case <-gate:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the responder")
	}
	b.Close() // connection drops mid-RPC, before the response exists

	r := waitRPC(t, ch, 10*time.Second)
	if !errors.Is(r.err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", r.err)
	}
}

// TestClosePendingRPCFailFast pins the shutdown contract: an RPC still in
// flight when its own transport closes must fail immediately with
// transport.ErrClosed — not leak its pending entry and leave the caller
// waiting out a long timeout.
func TestClosePendingRPCFailFast(t *testing.T) {
	a, b, _ := twoProcs(t)
	defer b.Close()
	b.Bind(1, func(transport.Addr, transport.Message) (transport.Message, bool) {
		return nil, false // never answers: the RPC stays pending
	})
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	ch := callFrom(a, 0, 1, transporttest.Echo{N: 1}, time.Minute)
	time.Sleep(200 * time.Millisecond) // let the request frame fly
	start := time.Now()
	a.Close()
	r := waitRPC(t, ch, 10*time.Second)
	if !errors.Is(r.err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", r.err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("pending RPC took %v to fail after Close", took)
	}

	// New calls after Close also fail fast (no leaked pending entries,
	// no timers): the callback simply cannot be delivered to a closed
	// mailbox, but the transport must not panic or hang.
	a.Call(0, 1, transporttest.Echo{N: 2}, time.Minute, func(transport.Message, error) {})
}

// TestDroppedRequestFailsFast pins the reconnect/drop contract: when the
// transport KNOWS an outbound request never reached the wire (peer
// unreachable, queue full), the caller fails with ErrTimeout right away
// instead of waiting out its full deadline.
func TestDroppedRequestFailsFast(t *testing.T) {
	a, b, _ := twoProcs(t)
	defer a.Close()
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })
	b.Close() // peer gone: dials will fail

	start := time.Now()
	r := waitRPC(t, callFrom(a, 0, 1, transporttest.Echo{N: 1}, time.Minute), 30*time.Second)
	if !errors.Is(r.err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", r.err)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("dropped request took %v to fail (timeout was 1m)", took)
	}
}

// TestReconnectAfterPeerRestart proves dial-on-demand recovery: RPCs
// succeed, the peer process dies (RPCs now time out), a new process binds
// the same endpoint, and RPCs succeed again over fresh connections.
func TestReconnectAfterPeerRestart(t *testing.T) {
	a, b, epB := twoProcs(t)
	defer a.Close()
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })
	echo := func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		return m, true
	}
	b.Bind(1, echo)

	if r := waitRPC(t, callFrom(a, 0, 1, transporttest.Echo{N: 1}, 3*time.Second), 10*time.Second); r.err != nil {
		t.Fatalf("rpc before restart: %v", r.err)
	}

	b.Close() // peer dies
	if r := waitRPC(t, callFrom(a, 0, 1, transporttest.Echo{N: 2}, 500*time.Millisecond), 10*time.Second); !errors.Is(r.err, transport.ErrTimeout) {
		t.Fatalf("rpc while peer down: err = %v, want ErrTimeout", r.err)
	}

	// Restart: a fresh transport on the same endpoint.
	var b2 *nettransport.Transport
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		b2, err = nettransport.New(nettransport.Config{
			Listen: epB, Self: epB,
			Endpoints: []string{a.Self(), epB},
			Seed:      2,
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", epB, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer b2.Close()
	b2.Bind(1, echo)

	// The first attempts may land on a stale connection or inside the
	// redial backoff; within a few retries the link must recover.
	var last error
	for i := 0; i < 20; i++ {
		r := waitRPC(t, callFrom(a, 0, 1, transporttest.Echo{N: 3}, time.Second), 10*time.Second)
		if r.err == nil {
			if a.Dials() < 2 {
				t.Errorf("dials = %d, want >= 2 (initial + reconnect)", a.Dials())
			}
			return
		}
		last = r.err
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("rpc never succeeded after peer restart: %v", last)
}

// TestGarbageOnTheWire connects raw TCP clients that speak nonsense at the
// listener; the transport must drop those connections, count protocol
// errors, and keep serving well-formed traffic.
func TestGarbageOnTheWire(t *testing.T) {
	tr := newLoopback(t, 2)
	defer tr.Close()
	tr.Bind(0, func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		return m, true
	})
	tr.Bind(1, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	payloads := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),     // not a frame at all
		{0xFF, 0xFF, 0xFF, 0xFF, 0x01},       // absurd length prefix
		{0x00, 0x00, 0x00, 0x02, 0x01, 0x02}, // length below header size
		{0x00, 0x00, 0x00, 0x15, 0x09, 0, 0, 0, 0, 0, 0, // unknown frame kind
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for _, p := range payloads {
		c, err := net.Dial("tcp", tr.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Write(p)
		c.Close()
	}
	// Well-formed traffic still flows.
	r := waitRPC(t, callFrom(tr, 1, 0, transporttest.Echo{N: 7}, 5*time.Second), 10*time.Second)
	if r.err != nil {
		t.Fatalf("rpc after garbage: %v", r.err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.ProtocolErrors() < uint64(len(payloads)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := tr.ProtocolErrors(); got < uint64(len(payloads)) {
		t.Errorf("protocol errors = %d, want >= %d", got, len(payloads))
	}
}

// TestChordRingOverNetTransport runs the real Chord stack — stabilization,
// iterative lookups, signed tables — with every RPC crossing a TCP socket.
func TestChordRingOverNetTransport(t *testing.T) {
	const n = 16
	tr := newLoopback(t, n)
	defer tr.Close()

	cfg := chord.DefaultConfig()
	cfg.StabilizeEvery = 50 * time.Millisecond
	cfg.FixFingersEvery = 250 * time.Millisecond
	cfg.RPCTimeout = time.Second
	ring := chord.BuildRing(tr, cfg, n, nil)

	time.Sleep(200 * time.Millisecond) // a few stabilization rounds

	rng := rand.New(rand.NewSource(3))
	lookups := 12
	if testing.Short() {
		lookups = 5
	}
	// A single reusable timer instead of one leaked time.After per lookup.
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for i := 0; i < lookups; i++ {
		key := id.ID(rng.Uint64())
		want := ring.Owner(key)
		node := ring.Node(transport.Addr(rng.Intn(n)))
		type outcome struct {
			owner chord.Peer
			err   error
		}
		ch := make(chan outcome, 1)
		tr.After(node.Self.Addr, 0, func() {
			node.Lookup(key, func(owner chord.Peer, _ chord.LookupStats, err error) {
				ch <- outcome{owner, err}
			})
		})
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(10 * time.Second)
		select {
		case out := <-ch:
			if out.err != nil {
				t.Fatalf("lookup %d failed: %v", i, out.err)
			}
			if out.owner != want {
				t.Errorf("lookup %d: owner = %v, want %v", i, out.owner, want)
			}
		case <-timeout.C:
			t.Fatalf("lookup %d never completed", i)
		}
	}
	if errs := tr.CodecErrors(); errs != 0 {
		t.Errorf("codec errors on the wire: %d", errs)
	}
	in, out := tr.Frames()
	if in == 0 || out == 0 {
		t.Errorf("frames in/out = %d/%d, want both nonzero", in, out)
	}
	var bytes uint64
	for i := 0; i < n; i++ {
		bytes += tr.Stats(transport.Addr(i)).BytesSent
	}
	if bytes == 0 {
		t.Error("no bytes accounted across the ring")
	}
}

// TestNetTransportFaultConformance runs the hostile-network suite — lossy
// link, mid-RPC partition, storm join/leave — with every retry, timeout,
// and churned join crossing real TCP sockets.
func TestNetTransportFaultConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fault convergence over TCP")
	}
	transporttest.RunFaultConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		tr := newLoopback(t, hosts)
		return transporttest.Harness{
			Tr:      tr,
			Advance: func(d time.Duration) { time.Sleep(d) },
			Close:   tr.Close,
		}
	})
}

// lateProc builds a transport for slot 0 whose peer endpoint (slot 1) is not
// listening yet, and makes its first frame to that endpoint fail its dial.
func lateProc(t *testing.T, backoff time.Duration) (a *nettransport.Transport, epB string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve b: %v", err)
	}
	epB = lnB.Addr().String()
	lnB.Close() // dials to b are refused until b starts
	a, err = nettransport.New(nettransport.Config{
		Listener: lnA, Self: lnA.Addr().String(),
		Endpoints: []string{lnA.Addr().String(), epB}, Seed: 1,
		RedialBackoff: backoff,
	})
	if err != nil {
		t.Fatalf("transport a: %v", err)
	}
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })
	a.After(0, 0, func() { a.Send(0, 1, transporttest.Echo{N: 0}) })
	deadline := time.Now().Add(10 * time.Second)
	for a.SendDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first frame to the absent peer was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	return a, epB
}

// TestFramesHeldThroughRedialBackoff pins the start-order contract: after a
// failed dial, frames queued during the redial backoff wait for the next dial
// instead of being dropped, so a peer process that starts inside the backoff
// receives them. Only the frame whose own dial failed counts as a drop.
func TestFramesHeldThroughRedialBackoff(t *testing.T) {
	a, epB := lateProc(t, time.Second)
	defer a.Close()

	ch := callFrom(a, 0, 1, transporttest.Echo{N: 1}, 10*time.Second)
	a.After(0, 0, func() { a.Send(0, 1, transporttest.Echo{N: 2}) })

	got := make(chan uint64, 4)
	b, err := nettransport.New(nettransport.Config{
		Listen: epB, Self: epB, Endpoints: []string{a.Self(), epB}, Seed: 1,
	})
	if err != nil {
		t.Fatalf("transport b on %s: %v", epB, err)
	}
	defer b.Close()
	b.Bind(1, func(_ transport.Addr, m transport.Message) (transport.Message, bool) {
		e := m.(transporttest.Echo)
		got <- e.N
		return transporttest.Echo{N: e.N + 40}, true
	})

	if r := waitRPC(t, ch, 20*time.Second); r.err != nil {
		t.Fatalf("call issued during the backoff: %v", r.err)
	} else if e := r.msg.(transporttest.Echo); e.N != 41 {
		t.Fatalf("echo N = %d, want 41", e.N)
	}
	seen := map[uint64]bool{}
	for !seen[2] {
		select {
		case n := <-got:
			seen[n] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("the one-way frame sent during the backoff never arrived (got %v)", seen)
		}
	}
	if seen[0] {
		t.Error("the frame whose dial failed was delivered")
	}
	if d := a.SendDrops(); d != 1 {
		t.Errorf("send drops = %d, want 1 (the first batch only)", d)
	}
}

// TestCloseDuringRedialHold closes a transport while its link holds a batch
// through the redial backoff: Close returns without waiting the backoff out,
// and the held call fails with ErrClosed.
func TestCloseDuringRedialHold(t *testing.T) {
	a, _ := lateProc(t, time.Minute)
	ch := callFrom(a, 0, 1, transporttest.Echo{N: 1}, time.Minute)
	time.Sleep(100 * time.Millisecond) // let the writer pick the frame up

	start := time.Now()
	a.Close()
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Close took %v during a one-minute backoff", took)
	}
	if r := waitRPC(t, ch, 10*time.Second); !errors.Is(r.err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", r.err)
	}
	if d := a.SendDrops(); d != 1 {
		t.Errorf("send drops = %d, want 1 (the first batch only)", d)
	}
}
