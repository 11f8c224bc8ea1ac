// Package transporttest is the shared conformance suite every
// transport.Transport implementation must pass. It pins down the semantics
// the protocol layers rely on: bind/alive lifecycle, RPC success, timeout
// and unreachable behavior, dead-host drops, traffic accounting equal to
// the real encoded size, timer delivery, and the per-host callback
// serialization contract.
package transporttest

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
)

// Echo is the suite's message type: an arbitrary payload plus a counter,
// with a registered wire codec (type code 0x7F01, reserved for tests).
type Echo struct {
	N       uint64
	Payload []byte
}

// Size implements transport.Message.
func (m Echo) Size() int { return transport.EncodedSize(m) }

// WireType implements transport.Wire.
func (Echo) WireType() uint16 { return 0x7F01 }

// Code implements transport.Wire.
func (m Echo) Code(c *transport.Codec) transport.Wire {
	c.U64(&m.N)
	c.Bytes16(&m.Payload)
	return transport.Decoded(c, &m)
}

func init() { transport.Register(Echo{}) }

// Harness adapts one transport implementation to the suite.
type Harness struct {
	// Tr is the transport under test, with at least the requested number
	// of host slots.
	Tr transport.Transport
	// Advance drives time forward by d: virtual-clock transports run the
	// event loop, real-time transports sleep.
	Advance func(d time.Duration)
	// Close releases the transport (may be nil).
	Close func()
	// Concurrent reports that the transport may be driven from multiple
	// test goroutines at once (chantransport, nettransport). The
	// single-goroutine simulator is pumped from the test goroutine only,
	// so suites that model concurrent clients fall back to interleaved
	// submission when this is false.
	Concurrent bool
	// SenderAccountsRemote reports that some slots live in another process
	// (nettransport split over two Transports): a sender accounts a message
	// to such a slot when it hands the frame to the socket, because its
	// delivery cannot be observed, so a send to a dead host there is
	// accounted at the sender though the receiver drops it.
	SenderAccountsRemote bool
}

// Factory builds a fresh harness with the given number of host slots.
type Factory func(t *testing.T, hosts int) Harness

// tick is the suite's base time quantum: RPC timeouts are a few ticks, so
// real-time transports finish each case in tens of milliseconds.
const tick = 20 * time.Millisecond

// CheckGoroutineLeak fails t when, after a settle window, the process runs
// materially more goroutines than before the suite: a transport whose
// Close leaves actor loops, link writers, or RPC timers behind leaks a
// goroutine per instance, and the conformance suites create dozens of
// instances. Call it with runtime.NumGoroutine() captured BEFORE the first
// harness is built (typically via defer at the top of the suite).
func CheckGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	// A small tolerance absorbs runtime-internal goroutines (GC, timer
	// wheels) that come and go independently of the code under test.
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	now := runtime.NumGoroutine()
	for now > before+slack && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		now = runtime.NumGoroutine()
	}
	if now > before+slack {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before the suite, %d after Close of every harness\n%s",
			before, now, buf[:n])
	}
}

// RunConformance runs the full suite against the factory.
func RunConformance(t *testing.T, mk Factory) {
	defer CheckGoroutineLeak(t, runtime.NumGoroutine())
	t.Run("RPCEchoAndStats", func(t *testing.T) { testRPCEchoAndStats(t, mk) })
	t.Run("RPCTimeoutUnboundHost", func(t *testing.T) { testRPCTimeoutUnbound(t, mk) })
	t.Run("RPCTimeoutDeadHostAndRevival", func(t *testing.T) { testDeadHostRevival(t, mk) })
	t.Run("RPCUnreachableAddress", func(t *testing.T) { testUnreachable(t, mk) })
	t.Run("SendOneWay", func(t *testing.T) { testSendOneWay(t, mk) })
	t.Run("SendToDeadHostNoAccounting", func(t *testing.T) { testSendDead(t, mk) })
	t.Run("HandlerDropYieldsTimeout", func(t *testing.T) { testHandlerDrop(t, mk) })
	t.Run("AliveLifecycle", func(t *testing.T) { testAliveLifecycle(t, mk) })
	t.Run("AfterAndCancel", func(t *testing.T) { testAfterAndCancel(t, mk) })
	t.Run("EveryRepeatsUntilStopped", func(t *testing.T) { testEvery(t, mk) })
	t.Run("EveryNonPositivePeriod", func(t *testing.T) { testEveryNonPositivePeriod(t, mk) })
	t.Run("NowMonotone", func(t *testing.T) { testNowMonotone(t, mk) })
	t.Run("HandlerSerialization", func(t *testing.T) { testSerialization(t, mk) })
	t.Run("PipelinedCallsOneLink", func(t *testing.T) { testPipelinedCalls(t, mk) })
}

// result carries an RPC outcome out of callback context. Buffered channels
// work on both single-goroutine (simnet) and concurrent transports.
type result struct {
	msg transport.Message
	err error
}

func echoHandler(transport.Addr, transport.Message) (transport.Message, bool) {
	return Echo{N: 42, Payload: []byte("pong")}, true
}

func testRPCEchoAndStats(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	req := Echo{N: 7, Payload: []byte("ping")}
	resp := Echo{N: 42, Payload: []byte("pong")}
	h.Tr.Bind(0, func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		if from != 1 {
			t.Errorf("handler saw from=%v, want 1", from)
		}
		e, ok := m.(Echo)
		if !ok || e.N != req.N || !bytes.Equal(e.Payload, req.Payload) {
			t.Errorf("handler saw %#v, want %#v", m, req)
		}
		return resp, true
	})
	h.Tr.Bind(1, echoHandler)
	ch := make(chan result, 1)
	h.Tr.After(1, 0, func() {
		h.Tr.Call(1, 0, req, 10*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	h.Advance(5 * tick)
	r := waitResult(t, h, ch)
	if r.err != nil {
		t.Fatalf("rpc error: %v", r.err)
	}
	if e, ok := r.msg.(Echo); !ok || e.N != resp.N || !bytes.Equal(e.Payload, resp.Payload) {
		t.Fatalf("rpc answer = %#v, want %#v", r.msg, resp)
	}
	// Accounting must equal the real encoded size on both sides.
	caller, callee := h.Tr.Stats(1), h.Tr.Stats(0)
	if caller.MsgsSent != 1 || caller.BytesSent != uint64(req.Size()) {
		t.Errorf("caller sent %d msgs / %d bytes, want 1 / %d", caller.MsgsSent, caller.BytesSent, req.Size())
	}
	if caller.MsgsReceived != 1 || caller.BytesReceived != uint64(resp.Size()) {
		t.Errorf("caller received %d msgs / %d bytes, want 1 / %d", caller.MsgsReceived, caller.BytesReceived, resp.Size())
	}
	if callee.MsgsReceived != 1 || callee.BytesReceived != uint64(req.Size()) {
		t.Errorf("callee received %d msgs / %d bytes, want 1 / %d", callee.MsgsReceived, callee.BytesReceived, req.Size())
	}
	if callee.MsgsSent != 1 || callee.BytesSent != uint64(resp.Size()) {
		t.Errorf("callee sent %d msgs / %d bytes, want 1 / %d", callee.MsgsSent, callee.BytesSent, resp.Size())
	}
}

func testRPCTimeoutUnbound(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	ch := make(chan result, 1)
	h.Tr.After(0, 0, func() {
		h.Tr.Call(0, 1, Echo{N: 1}, 3*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	h.Advance(6 * tick)
	r := waitResult(t, h, ch)
	if !errors.Is(r.err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", r.err)
	}
}

func testDeadHostRevival(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	h.Tr.Bind(1, echoHandler)
	h.Tr.SetAlive(1, false)
	ch := make(chan result, 1)
	h.Tr.After(0, 0, func() {
		h.Tr.Call(0, 1, Echo{N: 1}, 3*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	h.Advance(6 * tick)
	if r := waitResult(t, h, ch); !errors.Is(r.err, transport.ErrTimeout) {
		t.Fatalf("dead host err = %v, want ErrTimeout", r.err)
	}
	// Dead hosts account no traffic.
	if st := h.Tr.Stats(1); st.MsgsReceived != 0 {
		t.Errorf("dead host received %d msgs, want 0", st.MsgsReceived)
	}
	// Revival restores service.
	h.Tr.SetAlive(1, true)
	h.Tr.After(0, 0, func() {
		h.Tr.Call(0, 1, Echo{N: 2}, 10*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	h.Advance(5 * tick)
	if r := waitResult(t, h, ch); r.err != nil {
		t.Fatalf("revived host err = %v, want success", r.err)
	}
}

func testUnreachable(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	ch := make(chan result, 1)
	h.Tr.After(0, 0, func() {
		h.Tr.Call(0, transport.Addr(1<<28), Echo{N: 1}, 3*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	h.Advance(2 * tick)
	if r := waitResult(t, h, ch); !errors.Is(r.err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", r.err)
	}
}

func testSendOneWay(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	got := make(chan Echo, 1)
	h.Tr.Bind(0, func(from transport.Addr, m transport.Message) (transport.Message, bool) {
		if e, ok := m.(Echo); ok && from == 1 {
			select {
			case got <- e:
			default:
			}
		}
		return nil, false // one-way: nothing to respond
	})
	h.Tr.Bind(1, echoHandler)
	msg := Echo{N: 9, Payload: []byte("fire-and-forget")}
	h.Tr.After(1, 0, func() { h.Tr.Send(1, 0, msg) })
	h.Advance(3 * tick)
	select {
	case e := <-got:
		if e.N != 9 || !bytes.Equal(e.Payload, msg.Payload) {
			t.Fatalf("received %#v, want %#v", e, msg)
		}
	default:
		t.Fatal("one-way send never delivered")
	}
	if st := h.Tr.Stats(0); st.BytesReceived != uint64(msg.Size()) {
		t.Errorf("receiver accounted %d bytes, want %d", st.BytesReceived, msg.Size())
	}
}

func testSendDead(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	h.Tr.Bind(1, echoHandler)
	h.Tr.SetAlive(0, false)
	h.Tr.After(1, 0, func() { h.Tr.Send(1, 0, Echo{N: 1}) })
	h.Advance(3 * tick)
	if st := h.Tr.Stats(0); st.MsgsReceived != 0 {
		t.Errorf("dead host accounted %d received msgs, want 0", st.MsgsReceived)
	}
	if st := h.Tr.Stats(1); st.MsgsSent != 0 && !h.SenderAccountsRemote {
		t.Errorf("sender accounted %d sent msgs to a dead host, want 0", st.MsgsSent)
	}
}

func testHandlerDrop(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) {
		return nil, false // selective drop
	})
	h.Tr.Bind(1, echoHandler)
	ch := make(chan result, 1)
	h.Tr.After(1, 0, func() {
		h.Tr.Call(1, 0, Echo{N: 1}, 3*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	h.Advance(6 * tick)
	if r := waitResult(t, h, ch); !errors.Is(r.err, transport.ErrTimeout) {
		t.Fatalf("dropped request err = %v, want ErrTimeout", r.err)
	}
}

func testAliveLifecycle(t *testing.T, mk Factory) {
	h := mk(t, 2)
	defer closeH(h)
	if h.Tr.Alive(0) {
		t.Error("unbound host reports alive")
	}
	h.Tr.Bind(0, echoHandler)
	if !h.Tr.Alive(0) {
		t.Error("bound host reports dead")
	}
	h.Tr.SetAlive(0, false)
	if h.Tr.Alive(0) {
		t.Error("killed host reports alive")
	}
	h.Tr.SetAlive(0, true)
	if !h.Tr.Alive(0) {
		t.Error("revived host reports dead")
	}
	if h.Tr.Alive(transport.Addr(1 << 28)) {
		t.Error("out-of-range address reports alive")
	}
	if h.Tr.Alive(transport.NoAddr) {
		t.Error("NoAddr reports alive")
	}
}

func testAfterAndCancel(t *testing.T, mk Factory) {
	h := mk(t, 1)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	fired := make(chan int, 8)
	h.Tr.After(0, tick, func() { fired <- 1 })
	timer := h.Tr.After(0, tick, func() { fired <- 2 })
	timer.Cancel()
	h.Advance(4 * tick)
	select {
	case v := <-fired:
		if v != 1 {
			t.Fatalf("cancelled timer fired (got %d)", v)
		}
	default:
		t.Fatal("timer never fired")
	}
	select {
	case v := <-fired:
		t.Fatalf("extra timer firing: %d", v)
	default:
	}
}

func testEvery(t *testing.T, mk Factory) {
	h := mk(t, 1)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	fired := make(chan struct{}, 64)
	var stop func()
	stop = h.Tr.Every(0, tick, func() { fired <- struct{}{} })
	h.Advance(5 * tick)
	n := len(fired)
	if n < 2 {
		t.Fatalf("periodic timer fired %d times in 5 periods, want >= 2", n)
	}
	stop()
	h.Advance(4 * tick)
	// Allow one in-flight firing around the stop; after that, silence.
	drained := len(fired)
	if drained > n+1 {
		t.Errorf("timer kept firing after stop: %d -> %d", n, drained)
	}
}

// testEveryNonPositivePeriod: a zero or negative period is taken as 1 ms by
// every backend. Unclamped, a virtual-clock ticker re-arms at the current
// instant and fires forever without time passing; the cap below turns that
// into a failure instead of a hang.
func testEveryNonPositivePeriod(t *testing.T, mk Factory) {
	for _, period := range []time.Duration{0, -tick} {
		h := mk(t, 1)
		h.Tr.Bind(0, echoHandler)
		const span = 3 * tick
		limit := 4 * int64(span/time.Millisecond)
		var fired atomic.Int64
		var mu sync.Mutex // orders the callback's read of stop after its assignment
		var stop func()
		mu.Lock()
		stop = h.Tr.Every(0, period, func() {
			if fired.Add(1) == limit+1 {
				mu.Lock()
				defer mu.Unlock()
				stop()
			}
		})
		mu.Unlock()
		h.Advance(span)
		if n := fired.Load(); n < 1 || n > limit {
			t.Errorf("period %v: %d firings in %v, want between 1 and %d (a 1 ms period)", period, n, span, limit)
		}
		stop()
		h.Advance(tick) // lets a firing already in flight land
		n := fired.Load()
		h.Advance(3 * tick)
		if after := fired.Load(); after != n {
			t.Errorf("period %v: ticker kept firing after stop: %d -> %d", period, n, after)
		}
		closeH(h)
	}
}

func testNowMonotone(t *testing.T, mk Factory) {
	h := mk(t, 1)
	defer closeH(h)
	before := h.Tr.Now()
	h.Advance(3 * tick)
	after := h.Tr.Now()
	if after < before {
		t.Fatalf("clock went backwards: %v -> %v", before, after)
	}
	if after == before {
		t.Fatalf("clock did not advance across Advance(%v)", 3*tick)
	}
}

// testSerialization hammers one host from many callers; the handler mutates
// unsynchronized state, which the race detector (and a final count check)
// validates against the per-host serialization contract.
func testSerialization(t *testing.T, mk Factory) {
	const callers = 8
	const perCaller = 25
	h := mk(t, callers+1)
	defer closeH(h)
	target := transport.Addr(callers)
	count := 0 // deliberately not atomic: the contract serializes access
	h.Tr.Bind(target, func(transport.Addr, transport.Message) (transport.Message, bool) {
		count++
		return Echo{N: uint64(count)}, true
	})
	done := make(chan struct{}, callers*perCaller)
	for c := 0; c < callers; c++ {
		caller := transport.Addr(c)
		h.Tr.Bind(caller, echoHandler)
		h.Tr.After(caller, 0, func() {
			for i := 0; i < perCaller; i++ {
				h.Tr.Call(caller, target, Echo{N: uint64(i)}, 50*tick, func(transport.Message, error) {
					done <- struct{}{}
				})
			}
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(done) < callers*perCaller && time.Now().Before(deadline) {
		h.Advance(2 * tick)
	}
	if got := len(done); got != callers*perCaller {
		t.Fatalf("%d/%d rpcs completed", got, callers*perCaller)
	}
	// Read the counter inside the host's context to close the final race.
	final := make(chan int, 1)
	h.Tr.After(target, 0, func() { final <- count })
	h.Advance(2 * tick)
	select {
	case v := <-final:
		if v != callers*perCaller {
			t.Fatalf("handler ran %d times, want %d", v, callers*perCaller)
		}
	default:
		t.Fatal("could not read final count")
	}
}

// testPipelinedCalls posts a burst of RPCs from ONE caller to ONE target in
// a single host-context turn, so every request is queued on the same link
// before any can be written. On transports that coalesce writes this drives
// multi-frame batches through a single flush (and back-to-back frames
// through the reader); every request must still get its own matching
// response. Payloads are distinct per request so a mis-correlated response
// (wrong reqID wiring in a batch) is caught, not just a lost one.
func testPipelinedCalls(t *testing.T, mk Factory) {
	const burst = 32
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, func(_ transport.Addr, m transport.Message) (transport.Message, bool) {
		e := m.(Echo)
		return Echo{N: e.N, Payload: e.Payload}, true // echo verbatim
	})
	h.Tr.Bind(1, echoHandler)
	type reply struct {
		want uint64
		r    result
	}
	ch := make(chan reply, burst)
	h.Tr.After(1, 0, func() {
		for i := 0; i < burst; i++ {
			n := uint64(i)
			h.Tr.Call(1, 0, Echo{N: n, Payload: []byte{byte(i)}}, 50*tick, func(m transport.Message, err error) {
				ch <- reply{n, result{m, err}}
			})
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	seen := make(map[uint64]bool, burst)
	for len(seen) < burst {
		select {
		case rp := <-ch:
			if rp.r.err != nil {
				t.Fatalf("pipelined rpc %d: %v", rp.want, rp.r.err)
			}
			e, ok := rp.r.msg.(Echo)
			if !ok || e.N != rp.want || len(e.Payload) != 1 || e.Payload[0] != byte(rp.want) {
				t.Fatalf("pipelined rpc %d: mis-correlated response %#v", rp.want, rp.r.msg)
			}
			if seen[rp.want] {
				t.Fatalf("pipelined rpc %d: duplicate response", rp.want)
			}
			seen[rp.want] = true
		default:
			if time.Now().After(deadline) {
				t.Fatalf("%d/%d pipelined rpcs completed", len(seen), burst)
			}
			h.Advance(tick)
		}
	}
}

func waitResult(t *testing.T, h Harness, ch chan result) result {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case r := <-ch:
			return r
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("rpc callback never ran")
		}
		h.Advance(tick)
	}
}

func closeH(h Harness) {
	if h.Close != nil {
		h.Close()
	}
}
