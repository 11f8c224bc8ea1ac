package chantransport_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/chantransport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// TestChanTransportConformance runs the shared transport conformance suite
// against the concurrent channel backend.
func TestChanTransportConformance(t *testing.T) {
	transporttest.RunConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		net := chantransport.New(hosts, 1)
		return transporttest.Harness{
			Tr:         net,
			Advance:    func(d time.Duration) { time.Sleep(d) },
			Close:      net.Close,
			Concurrent: true,
		}
	})
}

// TestChanTransportChurnConformance runs the dynamic-membership suite under
// true parallelism: joins, leaves, and failure suspicion race with live
// stabilization traffic, with every message crossing the wire codec.
func TestChanTransportChurnConformance(t *testing.T) {
	transporttest.RunChurnConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		net := chantransport.New(hosts, 7)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { time.Sleep(d) },
			Close:   net.Close,
		}
	})
}

// TestChanTransportLookupConformance runs the concurrent-lookup suite with
// real client goroutines: overlapping α-parallel anonymous lookups, pool
// refills, and service queueing race under the race detector.
func TestChanTransportLookupConformance(t *testing.T) {
	transporttest.RunLookupConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		net := chantransport.New(hosts, 13)
		return transporttest.Harness{
			Tr:         net,
			Advance:    func(d time.Duration) { time.Sleep(d) },
			Close:      net.Close,
			Concurrent: true,
		}
	})
}

// TestConformanceWithLatency reruns the suite with a delivery delay, which
// shakes out ordering assumptions hidden by instant delivery.
func TestConformanceWithLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency variant doubles the suite's wall time")
	}
	transporttest.RunConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		net := chantransport.New(hosts, 1, chantransport.WithLatency(time.Millisecond))
		return transporttest.Harness{
			Tr:         net,
			Advance:    func(d time.Duration) { time.Sleep(d) },
			Close:      net.Close,
			Concurrent: true,
		}
	})
}

// TestChordRingOverChanTransport runs the real Chord stack — stabilization,
// finger maintenance, iterative lookups — over the concurrent transport.
// Every RPC of every lookup is serialized through the wire codec, so this is
// an end-to-end proof that the routing layer is genuinely unbound from the
// simulator.
func TestChordRingOverChanTransport(t *testing.T) {
	const n = 24
	net := chantransport.New(n, 7, chantransport.WithLatency(200*time.Microsecond))
	defer net.Close()

	cfg := chord.DefaultConfig()
	cfg.StabilizeEvery = 50 * time.Millisecond
	cfg.FixFingersEvery = 250 * time.Millisecond
	cfg.RPCTimeout = time.Second
	ring := chord.BuildRing(net, cfg, n, nil)

	// Let a few stabilization rounds run under real concurrency.
	time.Sleep(200 * time.Millisecond)

	type outcome struct {
		owner chord.Peer
		err   error
	}
	rng := rand.New(rand.NewSource(11))
	lookups := 20
	if testing.Short() {
		lookups = 8
	}
	// A single reusable timer instead of one leaked time.After per lookup.
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for i := 0; i < lookups; i++ {
		key := id.ID(rng.Uint64())
		want := ring.Owner(key)
		node := ring.Node(transport.Addr(rng.Intn(n)))
		ch := make(chan outcome, 1)
		// Enter the node's serialization context before touching its
		// routing state.
		net.After(node.Self.Addr, 0, func() {
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
	if errs := net.CodecErrors(); errs != 0 {
		t.Errorf("codec errors on the wire: %d (some message lacks a codec)", errs)
	}
	// Real traffic flowed through real encodings.
	var bytes uint64
	for i := 0; i < n; i++ {
		bytes += net.Stats(transport.Addr(i)).BytesSent
	}
	if bytes == 0 {
		t.Error("no bytes accounted across the ring")
	}
}

// TestChanTransportFaultConformance runs the hostile-network suite — lossy
// link, mid-RPC partition, storm join/leave — under true parallelism, where
// the kill genuinely races in-flight deliveries.
func TestChanTransportFaultConformance(t *testing.T) {
	transporttest.RunFaultConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		net := chantransport.New(hosts, 19)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { time.Sleep(d) },
			Close:   net.Close,
		}
	})
}

// TestAwaitDeadlineDropsLateResult checks transport.Await over a concurrent
// backend: at its deadline it returns (zero, false); the late done that
// follows neither blocks the host's loop nor leaves a goroutine behind.
func TestAwaitDeadlineDropsLateResult(t *testing.T) {
	defer transporttest.CheckGoroutineLeak(t, runtime.NumGoroutine())
	net := chantransport.New(1, 1)
	stuck := false
	defer func() {
		if !stuck { // Close would wait forever on a blocked host loop
			net.Close()
		}
	}()

	const late = 100 * time.Millisecond
	delivered := make(chan struct{})
	v, ok := transport.Await(net, 0, 10*time.Millisecond, func(done func(int)) {
		net.After(0, late, func() {
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
	if v, ok := transport.Await(net, 0, 5*time.Second, func(done func(int)) { done(9) }); !ok || v != 9 {
		t.Fatalf("Await after a dropped answer = (%d, %v), want (9, true)", v, ok)
	}
}
