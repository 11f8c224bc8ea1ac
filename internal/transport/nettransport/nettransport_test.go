package nettransport_test

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// oneProc builds one transport that serves every slot of its endpoint
// table: all host-to-host traffic stays inside the process and never
// touches a socket.
func oneProc(t *testing.T, hosts int) *nettransport.Transport {
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

// split spreads a deployment's slots over two Transports that share one
// endpoint table, the in-test stand-in for two OS processes: slot i lives
// on transport i mod 2. A suite run on it takes both delivery paths —
// in-process between slots of one parity, over TCP between the two — and
// each transport.Transport method goes to the transport that owns the slot
// it names (Send and Call to the owner of from). Now and Rand come from
// transport 0, so every host reads one clock and one seeded stream.
type split [2]*nettransport.Transport

func newSplit(t *testing.T, hosts int) split {
	t.Helper()
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
	}
	eps := make([]string, max(hosts, 2)) // transport 1 needs a slot of its own
	for i := range eps {
		eps[i] = lns[i%2].Addr().String()
	}
	var s split
	for i, ln := range lns {
		tr, err := nettransport.New(nettransport.Config{
			Listener: ln, Self: ln.Addr().String(), Endpoints: eps, Seed: 1,
		})
		if err != nil {
			s.Close()
			t.Fatalf("nettransport.New: %v", err)
		}
		s[i] = tr
	}
	return s
}

// harness wraps the split for the shared suites.
func (s split) harness(concurrent bool) transporttest.Harness {
	return transporttest.Harness{
		Tr:         s,
		Advance:    func(d time.Duration) { time.Sleep(d) },
		Close:      s.Close,
		Concurrent: concurrent,
		// A frame to another process is accounted when it leaves.
		SenderAccountsRemote: true,
	}
}

func (s split) of(a transport.Addr) *nettransport.Transport { return s[a&1] }

func (s split) Close() {
	for _, tr := range s {
		if tr != nil {
			tr.Close()
		}
	}
}

func (s split) Bind(a transport.Addr, h transport.Handler) { s.of(a).Bind(a, h) }
func (s split) SetAlive(a transport.Addr, alive bool)      { s.of(a).SetAlive(a, alive) }
func (s split) Alive(a transport.Addr) bool                { return s.of(a).Alive(a) }
func (s split) Stats(a transport.Addr) obs.Traffic         { return s.of(a).Stats(a) }
func (s split) Now() time.Duration                         { return s[0].Now() }
func (s split) Rand() *rand.Rand                           { return s[0].Rand() }
func (s split) Send(from, to transport.Addr, m transport.Message) {
	s.of(from).Send(from, to, m)
}
func (s split) Call(from, to transport.Addr, req transport.Message, timeout time.Duration, cb func(transport.Message, error)) {
	s.of(from).Call(from, to, req, timeout, cb)
}
func (s split) After(owner transport.Addr, d time.Duration, fn func()) transport.Timer {
	return s.of(owner).After(owner, d, fn)
}
func (s split) Every(owner transport.Addr, period time.Duration, fn func()) func() {
	return s.of(owner).Every(owner, period, fn)
}

// TestNetTransportConformance pins the socket backend to the same semantics
// as simnet: the full shared suite over two processes, so frames between
// slots of one parity stay in-process and the rest cross TCP.
func TestNetTransportConformance(t *testing.T) {
	transporttest.RunConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		return newSplit(t, hosts).harness(true)
	})
}

// oneProcHarness adapts oneProc to the shared suites.
func oneProcHarness(concurrent bool) transporttest.Factory {
	return func(t *testing.T, hosts int) transporttest.Harness {
		tr := oneProc(t, hosts)
		return transporttest.Harness{
			Tr:         tr,
			Advance:    func(d time.Duration) { time.Sleep(d) },
			Close:      tr.Close,
			Concurrent: concurrent,
		}
	}
}

// TestNetTransportOneProcessConformance runs the same suite with every slot
// in one process, where no frame touches a socket.
func TestNetTransportOneProcessConformance(t *testing.T) {
	transporttest.RunConformance(t, oneProcHarness(true))
}

// TestNetTransportOneProcessChurnConformance runs the dynamic-membership
// suite with every slot in one process: joins, leaves and suspicion probes
// race live stabilization on real host goroutines, every message through
// the wire codec.
func TestNetTransportOneProcessChurnConformance(t *testing.T) {
	transporttest.RunChurnConformance(t, oneProcHarness(false))
}

// TestNetTransportOneProcessLookupConformance runs the concurrent-lookup
// suite in one process: overlapping α-parallel anonymous lookups, pool
// refills and service queueing race under the race detector.
func TestNetTransportOneProcessLookupConformance(t *testing.T) {
	transporttest.RunLookupConformance(t, oneProcHarness(true))
}

// TestNetTransportOneProcessFaultConformance runs the hostile-network suite
// in one process, where a kill races in-flight deliveries on the hosts'
// own loops.
func TestNetTransportOneProcessFaultConformance(t *testing.T) {
	transporttest.RunFaultConformance(t, oneProcHarness(false))
}

// TestNetTransportCloseContract and TestNetTransportOneProcessCloseContract
// check that every call gets exactly one callback through Close. Over two
// processes each round dials a TCP connection, so that harness runs fewer
// rounds than the one that opens none.
func TestNetTransportCloseContract(t *testing.T) {
	transporttest.RunCloseContract(t, func(t *testing.T, hosts int) transporttest.Harness {
		return newSplit(t, hosts).harness(true)
	}, 2000)
}

func TestNetTransportOneProcessCloseContract(t *testing.T) {
	transporttest.RunCloseContract(t, oneProcHarness(true), 20_000)
}

// TestAwaitDeadlineDropsLateResult checks transport.Await over a concurrent
// backend: at its deadline it returns (zero, false); the late done that
// follows neither blocks the host's loop nor leaves a goroutine behind.
func TestAwaitDeadlineDropsLateResult(t *testing.T) {
	defer transporttest.CheckGoroutineLeak(t, runtime.NumGoroutine())
	tr := oneProc(t, 1)
	stuck := false
	defer func() {
		if !stuck { // Close would wait forever on a blocked host loop
			tr.Close()
		}
	}()

	const late = 100 * time.Millisecond
	delivered := make(chan struct{})
	v, ok := transport.Await(tr, 0, 10*time.Millisecond, func(done func(int)) {
		tr.After(0, late, func() {
			done(7)
			close(delivered)
		})
	})
	if ok || v != 0 {
		t.Fatalf("Await past its deadline = (%d, %v), want (0, false)", v, ok)
	}
	stall := time.NewTimer(5 * time.Second)
	defer stall.Stop()
	select {
	case <-delivered:
	case <-stall.C:
		stuck = true
		t.Fatal("the late done blocked the host's loop")
	}
	// The host still serves its context after the dropped answer.
	if v, ok := transport.Await(tr, 0, 5*time.Second, func(done func(int)) { done(9) }); !ok || v != 9 {
		t.Fatalf("Await after a dropped answer = (%d, %v), want (9, true)", v, ok)
	}
}

// TestNetTransportChurnConformance runs the dynamic-membership suite with
// joins, leaves, and suspicion probes crossing real TCP sockets.
func TestNetTransportChurnConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time churn convergence over TCP")
	}
	transporttest.RunChurnConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		return newSplit(t, hosts).harness(false)
	})
}

// TestNetTransportLookupConformance runs the concurrent-lookup suite with
// the queries of overlapping anonymous lookups crossing real TCP.
func TestNetTransportLookupConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time lookup convergence over TCP")
	}
	transporttest.RunLookupConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		return newSplit(t, hosts).harness(true)
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

	// A call made after Close is transport.Transport.Call's one exception:
	// no host loop is left to run its callback, so none runs. It must not
	// panic, hang, or leave a pending entry behind.
	called := make(chan error, 1)
	a.Call(0, 1, transporttest.Echo{N: 2}, time.Minute, func(_ transport.Message, err error) { called <- err })
	select {
	case err := <-called:
		t.Errorf("a call made after Close got a callback (%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	if n := nettransport.PendingCalls(a); n != 0 {
		t.Errorf("%d calls pending after Close", n)
	}
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

// TestGarbageOnTheWire connects raw TCP clients that speak nonsense at a
// listener; the transport must drop those connections, count protocol
// errors, and keep serving well-formed traffic on that same listener.
func TestGarbageOnTheWire(t *testing.T) {
	a, b, epB := twoProcs(t)
	defer a.Close()
	defer b.Close()
	b.Bind(1, func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		return m, true
	})
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	payloads := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),     // not a frame at all
		{0xFF, 0xFF, 0xFF, 0xFF, 0x01},       // absurd length prefix
		{0x00, 0x00, 0x00, 0x02, 0x01, 0x02}, // length below header size
		{0x00, 0x00, 0x00, 0x15, 0x09, 0, 0, 0, 0, 0, 0, // unknown frame kind
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for _, p := range payloads {
		c, err := net.Dial("tcp", epB)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Write(p)
		c.Close()
	}
	// Well-formed traffic still flows, through the listener that got the
	// garbage.
	r := waitRPC(t, callFrom(a, 0, 1, transporttest.Echo{N: 7}, 5*time.Second), 10*time.Second)
	if r.err != nil {
		t.Fatalf("rpc after garbage: %v", r.err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.ProtocolErrors() < uint64(len(payloads)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := b.ProtocolErrors(); got < uint64(len(payloads)) {
		t.Errorf("protocol errors = %d, want >= %d", got, len(payloads))
	}
}

// TestChordRingOverNetTransport runs the real Chord stack — stabilization,
// iterative lookups, signed tables — over two processes, so half its RPCs
// cross a TCP socket.
func TestChordRingOverNetTransport(t *testing.T) {
	const n = 16
	tr := newSplit(t, n)
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
	for _, p := range tr {
		if errs := p.CodecErrors(); errs != 0 {
			t.Errorf("codec errors on the wire: %d", errs)
		}
		if in, out := p.Frames(); in == 0 || out == 0 || p.Dials() == 0 {
			t.Errorf("frames in/out = %d/%d, dials %d, want all nonzero", in, out, p.Dials())
		}
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
// link, mid-RPC partition, storm join/leave — with retries, timeouts, and
// churned joins crossing real TCP sockets.
func TestNetTransportFaultConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fault convergence over TCP")
	}
	transporttest.RunFaultConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		return newSplit(t, hosts).harness(false)
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

// TestLocalFramesSkipTheSocket pins the in-process path: an RPC and a
// one-way send between two slots of one transport dial nothing, count each
// of their three frames once out and once in, and account exactly the
// codec bytes on both hosts.
func TestLocalFramesSkipTheSocket(t *testing.T) {
	tr := oneProc(t, 2)
	defer tr.Close()
	req := transporttest.Echo{N: 1, Payload: []byte("request")}
	resp := transporttest.Echo{N: 2, Payload: []byte("response, longer")}
	note := transporttest.Echo{N: 3, Payload: []byte("one-way")}
	got := make(chan transporttest.Echo, 1)
	tr.Bind(1, func(_ transport.Addr, m transport.Message) (transport.Message, bool) {
		if e := m.(transporttest.Echo); e.N == note.N {
			got <- e
			return nil, false
		}
		return resp, true
	})
	tr.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	r := waitRPC(t, callFrom(tr, 0, 1, req, 5*time.Second), 10*time.Second)
	if r.err != nil || r.msg.(transporttest.Echo).N != resp.N {
		t.Fatalf("local rpc = %+v", r)
	}
	tr.After(0, 0, func() { tr.Send(0, 1, note) })
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("local one-way send never arrived")
	}

	if d := tr.Dials(); d != 0 {
		t.Errorf("dials = %d, want 0", d)
	}
	if in, out := tr.Frames(); in != 3 || out != 3 {
		t.Errorf("frames in/out = %d/%d, want 3/3", in, out)
	}
	sent := uint64(req.Size() + note.Size())
	if st := tr.Stats(0); st.MsgsSent != 2 || st.BytesSent != sent || st.MsgsReceived != 1 || st.BytesReceived != uint64(resp.Size()) {
		t.Errorf("caller stats = %+v, want 2 msgs / %d bytes sent, 1 / %d received", st, sent, resp.Size())
	}
	if st := tr.Stats(1); st.MsgsReceived != 2 || st.BytesReceived != sent || st.MsgsSent != 1 || st.BytesSent != uint64(resp.Size()) {
		t.Errorf("callee stats = %+v, want 2 msgs / %d bytes received, 1 / %d sent", st, sent, resp.Size())
	}
}

// TestDefaultListenIsLoopback: a transport given neither Listen nor Listener
// binds loopback only, so a one-process ring exposes no port to the network.
func TestDefaultListenIsLoopback(t *testing.T) {
	tr, err := nettransport.New(nettransport.Config{Self: "local", Endpoints: []string{"local", "local"}})
	if err != nil {
		t.Fatalf("nettransport.New: %v", err)
	}
	defer tr.Close()
	if a, ok := tr.Addr().(*net.TCPAddr); !ok || !a.IP.IsLoopback() || a.Port == 0 {
		t.Errorf("default listener bound %v, want a kernel-assigned loopback port", tr.Addr())
	}
}
