package transporttest

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Fault conformance: the hostile-network counterpart to RunConformance.
// Where the base suite pins transport semantics on a well-behaved network,
// this one pins what the protocol layers may assume when the network is NOT
// well behaved — the assumptions every chaos result rests on:
//
//   - Lossy link: when deliveries fail intermittently, every RPC still gets
//     EXACTLY one callback (response or error, never both, never none), and
//     a retry loop eventually succeeds once the link recovers.
//   - Mid-RPC partition: a target that dies with a request in flight yields
//     a timeout, not a hang and not a double callback — and the same slot
//     serves again after revival.
//   - Storm join/leave: the real membership layer survives correlated churn
//     (simultaneous joins racing simultaneous crash-kills) and converges to
//     a ring that routes correctly.
//
// All three run on every backend: the simulator reproduces them
// deterministically, nettransport in one and in two processes runs them
// under real concurrency (CI adds -race).

// RunFaultConformance runs the fault suite against the factory.
func RunFaultConformance(t *testing.T, mk Factory) {
	defer CheckGoroutineLeak(t, runtime.NumGoroutine())
	t.Run("LossyLinkExactlyOneCallback", func(t *testing.T) { testLossyLink(t, mk) })
	t.Run("MidRPCPartitionTimesOutThenRecovers", func(t *testing.T) { testMidRPCPartition(t, mk) })
	t.Run("StormJoinLeaveConverges", func(t *testing.T) { testStormJoinLeave(t, mk) })
}

// testLossyLink models loss at the delivery seam shared by all backends: a
// handler that black-holes requests on a deterministic schedule (every
// delivery whose sequence number fails seq%3 == 0 is dropped — a 67% loss
// pattern identical on every backend). Each attempt must resolve exactly
// once, and a bounded retry loop must push every logical request through.
func testLossyLink(t *testing.T, mk Factory) {
	const requests = 8
	const maxAttempts = 12
	h := mk(t, 2)
	defer closeH(h)

	seq := 0 // guarded by host 0's serialization context
	h.Tr.Bind(0, func(_ transport.Addr, m transport.Message) (transport.Message, bool) {
		seq++
		if seq%3 != 0 {
			return nil, false // lost on the floor
		}
		e := m.(Echo)
		return Echo{N: e.N, Payload: e.Payload}, true
	})
	h.Tr.Bind(1, echoHandler)

	type outcome struct {
		n        uint64
		attempts int
		err      error
	}
	done := make(chan outcome, requests)
	var send func(n uint64, attempt int)
	send = func(n uint64, attempt int) {
		fired := 0
		h.Tr.Call(1, 0, Echo{N: n}, 4*tick, func(m transport.Message, err error) {
			fired++
			if fired > 1 {
				t.Errorf("request %d attempt %d: callback fired %d times", n, attempt, fired)
				return
			}
			if err == nil {
				if e, ok := m.(Echo); !ok || e.N != n {
					t.Errorf("request %d: wrong response %#v", n, m)
				}
				done <- outcome{n, attempt, nil}
				return
			}
			if !errors.Is(err, transport.ErrTimeout) {
				done <- outcome{n, attempt, err}
				return
			}
			if attempt == maxAttempts {
				done <- outcome{n, attempt, err}
				return
			}
			send(n, attempt+1) // retry from within the caller's context
		})
	}
	h.Tr.After(1, 0, func() {
		for i := 0; i < requests; i++ {
			send(uint64(i), 1)
		}
	})

	got := make(map[uint64]bool, requests)
	deadline := time.Now().Add(30 * time.Second)
	for len(got) < requests {
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("request %d never delivered after %d attempts: %v", o.n, o.attempts, o.err)
			}
			if got[o.n] {
				t.Fatalf("request %d resolved twice", o.n)
			}
			got[o.n] = true
		default:
			if time.Now().After(deadline) {
				t.Fatalf("%d/%d requests pushed through the lossy link", len(got), requests)
			}
			h.Advance(tick)
		}
	}
}

// testMidRPCPartition kills the target while requests are in flight. The
// invariant is liveness, not a fixed outcome: on a real-time backend the
// kill races delivery, so each RPC may succeed or time out — but it must
// resolve exactly once, within its timeout, and the revived target must
// serve again.
func testMidRPCPartition(t *testing.T, mk Factory) {
	const burst = 8
	h := mk(t, 2)
	defer closeH(h)
	h.Tr.Bind(0, echoHandler)
	h.Tr.Bind(1, echoHandler)

	results := make(chan result, burst)
	h.Tr.After(1, 0, func() {
		for i := 0; i < burst; i++ {
			h.Tr.Call(1, 0, Echo{N: uint64(i)}, 6*tick, func(m transport.Message, err error) {
				results <- result{m, err}
			})
		}
		// Partition the target away in the same turn: every request above
		// is issued but none can have resolved yet.
		h.Tr.SetAlive(0, false)
	})

	resolved := 0
	deadline := time.Now().Add(30 * time.Second)
	for resolved < burst {
		select {
		case r := <-results:
			resolved++
			if r.err != nil && !errors.Is(r.err, transport.ErrTimeout) && !errors.Is(r.err, transport.ErrClosed) {
				t.Fatalf("mid-partition rpc error = %v, want success, ErrTimeout, or ErrClosed", r.err)
			}
		default:
			if time.Now().After(deadline) {
				t.Fatalf("%d/%d rpcs resolved after mid-flight partition (hang)", resolved, burst)
			}
			h.Advance(tick)
		}
	}
	// No late second callbacks.
	h.Advance(10 * tick)
	if extra := len(results); extra != 0 {
		t.Fatalf("%d extra callbacks after all %d rpcs resolved", extra, burst)
	}

	// Revival restores service on the same slot.
	h.Tr.SetAlive(0, true)
	ch := make(chan result, 1)
	h.Tr.After(1, 0, func() {
		h.Tr.Call(1, 0, Echo{N: 99}, 10*tick, func(m transport.Message, err error) {
			ch <- result{m, err}
		})
	})
	if r := waitResult(t, h, ch); r.err != nil {
		t.Fatalf("revived target err = %v, want success", r.err)
	}
}

// testStormJoinLeave drives the real membership layer through correlated
// churn: two fresh nodes join the ring WHILE two established nodes crash
// (no graceful leave). The ring must converge: every joiner becomes
// routable, every crashed identifier's keys move to its live successor, and
// no live node still lists a corpse in its neighbor lists.
func testStormJoinLeave(t *testing.T, mk Factory) {
	h := mk(t, churnRingSize+2)
	defer closeH(h)
	cfg := churnConfig()
	ring := chord.BuildRing(h.Tr, cfg, churnRingSize, nil)
	peers := ring.Peers()

	// Two joiners aimed at the widest gap; two victims elsewhere (not the
	// joiners' future successor, so the join targets stay alive).
	gi, widest := widestGap(peers)
	idA := id.ID(uint64(peers[gi].ID) + widest/3)
	idB := id.ID(uint64(peers[gi].ID) + 2*widest/3)
	nodeA := chord.NewNode(h.Tr, cfg, chord.Peer{ID: idA, Addr: transport.Addr(churnRingSize)}, nil)
	nodeB := chord.NewNode(h.Tr, cfg, chord.Peer{ID: idB, Addr: transport.Addr(churnRingSize + 1)}, nil)
	victims := []chord.Peer{peers[(gi+3)%len(peers)], peers[(gi+5)%len(peers)]}
	bootA := peers[(gi+2)%len(peers)]
	bootB := peers[(gi+6)%len(peers)]
	if bootB.ID == victims[0].ID || bootB.ID == victims[1].ID {
		bootB = peers[(gi+7)%len(peers)]
	}

	// Fire the storm: both joins launch, then both kills land while the
	// joins are still stabilizing.
	chA := startJoin(h, nodeA, bootA)
	chB := startJoin(h, nodeB, bootB)
	for _, v := range victims {
		ring.Kill(v.Addr)
	}
	if err := await(t, h, chA, "storm join A"); err != nil {
		t.Fatalf("join A under storm: %v", err)
	}
	if err := await(t, h, chB, "storm join B"); err != nil {
		t.Fatalf("join B under storm: %v", err)
	}

	isVictim := func(x id.ID) bool {
		return x == victims[0].ID || x == victims[1].ID
	}
	// Probe from a survivor that is neither victim nor joiner.
	var probe *chord.Node
	for _, p := range peers {
		if !isVictim(p.ID) {
			probe = ring.Node(p.Addr)
			break
		}
	}

	// Joiners become routable despite the concurrent crashes.
	waitOwner(t, h, probe, idA, idA)
	waitOwner(t, h, probe, idB, idB)

	// Crashed identifiers' keys route to their live successors.
	for _, v := range victims {
		want := liveSuccessorID(peers, v, isVictim)
		waitOwner(t, h, probe, v.ID, want)
	}

	// Suspicion evicts both corpses from every live node's neighbor lists.
	live := []*chord.Node{nodeA, nodeB}
	for _, p := range peers {
		if !isVictim(p.ID) {
			live = append(live, ring.Node(p.Addr))
		}
	}
	deadline := time.Now().Add(churnDeadline)
	for {
		holdouts := 0
		for _, n := range live {
			n := n
			lists := eval(t, h, n.Self.Addr, func() any {
				return append(n.Successors(), n.Predecessors()...)
			}).([]chord.Peer)
			for _, q := range lists {
				if isVictim(q.ID) {
					holdouts++
					break
				}
			}
		}
		if holdouts == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d live nodes still list a crashed node after the storm settled", holdouts)
		}
		h.Advance(3 * tick)
	}
}

// liveSuccessorID walks the sorted peer list clockwise from v to the first
// non-victim: the ground-truth owner of v's keys once v is gone. Joiner
// identifiers are deliberately ignored — they sit in the widest gap, away
// from the victims' ranges.
func liveSuccessorID(sorted []chord.Peer, v chord.Peer, isVictim func(id.ID) bool) id.ID {
	pos := 0
	for i, p := range sorted {
		if p.ID == v.ID {
			pos = i
			break
		}
	}
	for j := 1; j <= len(sorted); j++ {
		p := sorted[(pos+j)%len(sorted)]
		if !isVictim(p.ID) {
			return p.ID
		}
	}
	return v.ID
}
