// Package routingtiertest is the RoutingTier conformance suite: every tier
// implementation must converge lookups to the ground-truth owner, track
// membership churn within a bounded window, and stay maintenance-quiescent
// when the ring is idle. The suite runs the full Octopus stack over a
// transporttest.Factory, so each transport backend pins both tiers under
// -race with its own concurrency model, exactly like the transport
// conformance suites.
package routingtiertest

import (
	"runtime"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// ringSize is the suite's served ring population (+1 slot for the CA).
const ringSize = 16

// tick mirrors the transporttest quantum: RPC timeouts are a few ticks so
// real-time backends finish in tens of milliseconds.
const tick = 20 * time.Millisecond

// tiers lists every implementation the suite certifies.
var tiers = []string{core.TierFinger, core.TierOneHop}

// Run executes the conformance suite against the factory for both tiers.
func Run(t *testing.T, mk transporttest.Factory) {
	defer transporttest.CheckGoroutineLeak(t, runtime.NumGoroutine())
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			t.Run("Convergence", func(t *testing.T) { testConvergence(t, mk, tier) })
			t.Run("ChurnStaleness", func(t *testing.T) { testChurnStaleness(t, mk, tier) })
			t.Run("IdleQuiescence", func(t *testing.T) { testIdleQuiescence(t, mk, tier) })
		})
	}
}

// tierConfig tunes the stack for suite wall time, mirroring the lookup
// conformance config, with the tier under test selected.
func tierConfig(tier string) core.Config {
	cfg := core.DefaultConfig()
	cfg.RoutingTier = tier
	cfg.EstimatedSize = ringSize
	cfg.TierMaintainEvery = 5 * tick
	cfg.WalkEvery = 10 * tick
	cfg.SurveilEvery = 250 * tick
	cfg.QueryTimeout = 100 * tick
	cfg.Chord.StabilizeEvery = 5 * tick
	cfg.Chord.FixFingersEvery = 250 * tick
	cfg.Chord.RPCTimeout = 25 * tick
	return cfg
}

func closeH(h transporttest.Harness) {
	if h.Close != nil {
		h.Close()
	}
}

// lookupFrom resolves key with a DirectTableLookup issued from node's
// serialization context and pumps the harness until it concludes.
func lookupFrom(t *testing.T, h transporttest.Harness, node *core.Node,
	key id.ID) (chord.Peer, core.LookupStats, error) {
	t.Helper()
	type outcome struct {
		res   core.DirectLookupResult
		stats core.LookupStats
		err   error
	}
	done := make(chan outcome, 1)
	h.Tr.After(node.Chord.Self.Addr, 0, func() {
		node.DirectTableLookup(key, func(res core.DirectLookupResult,
			stats core.LookupStats, err error) {
			done <- outcome{res, stats, err}
		})
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case out := <-done:
			return out.res.Owner, out.stats, out.err
		default:
			if time.Now().After(deadline) {
				t.Fatalf("lookup of %v never completed", key)
			}
			h.Advance(2 * tick)
		}
	}
}

// onHost evaluates read inside addr's serialization context — tier stats
// and successor lists are live protocol state, so a plain call from the test
// goroutine would race on concurrent backends.
func onHost[T any](t *testing.T, h transporttest.Harness, addr transport.Addr, read func() T) T {
	t.Helper()
	done := make(chan T, 1)
	h.Tr.After(addr, 0, func() { done <- read() })
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case v := <-done:
			return v
		default:
			if time.Now().After(deadline) {
				t.Fatalf("read from node %d never completed", addr)
			}
			h.Advance(tick)
		}
	}
}

// tierStats reads one node's tier stats.
func tierStats(t *testing.T, h transporttest.Harness, nw *core.Network,
	addr transport.Addr) chord.TierStats {
	return onHost(t, h, addr, func() chord.TierStats { return nw.Node(addr).Tier().Stats() })
}

// firstSuccessor reads one node's first successor.
func firstSuccessor(t *testing.T, h transporttest.Harness, nw *core.Network,
	addr transport.Addr) chord.Peer {
	return onHost(t, h, addr, func() chord.Peer {
		if succs := nw.Node(addr).Chord.Successors(); len(succs) > 0 {
			return succs[0]
		}
		return chord.NoPeer
	})
}

// tierEntries reports one node's tier table size.
func tierEntries(t *testing.T, h transporttest.Harness, nw *core.Network,
	addr transport.Addr) int {
	return tierStats(t, h, nw, addr).Entries
}

// maintenanceBytes sums the tier maintenance traffic over all live nodes.
func maintenanceBytes(t *testing.T, h transporttest.Harness, nw *core.Network,
	n int) uint64 {
	var total uint64
	for i := 0; i < n; i++ {
		if nw.Node(transport.Addr(i)) == nil {
			continue
		}
		s := tierStats(t, h, nw, transport.Addr(i))
		total += s.BytesSent + s.BytesReceived
	}
	return total
}

// testConvergence: every lookup resolves the ground-truth owner, and a
// full-state tier does it with a single query once the engine leaves the
// local successor window.
func testConvergence(t *testing.T, mk transporttest.Factory, tier string) {
	h := mk(t, ringSize+1)
	defer closeH(h)
	nw, err := core.BuildNetwork(h.Tr, ringSize, tierConfig(tier))
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	h.Advance(20 * tick)

	if tier == core.TierOneHop {
		for i := 0; i < ringSize; i++ {
			if got := tierEntries(t, h, nw, transport.Addr(i)); got != ringSize {
				t.Errorf("node %d one-hop table holds %d entries, want %d", i, got, ringSize)
			}
		}
	}

	node := nw.Node(0)
	for j := 0; j < 8; j++ {
		key := id.ID(uint64(j)*0x9e3779b97f4a7c15 + 7)
		owner, stats, err := lookupFrom(t, h, node, key)
		if err != nil {
			t.Errorf("lookup of %v failed: %v", key, err)
			continue
		}
		if want := nw.Ring.Owner(key); owner.ID != want.ID {
			t.Errorf("lookup of %v resolved to %v, want %v", key, owner, want)
		}
		if tier == core.TierOneHop && stats.Queries > 1 {
			t.Errorf("full-state lookup of %v took %d queries, want ≤1", key, stats.Queries)
		}
	}
}

// testChurnStaleness: a crash is detected and disseminated within a
// bounded window; a rejoin restores full tables (one-hop) and ownership
// (both tiers).
func testChurnStaleness(t *testing.T, mk transporttest.Factory, tier string) {
	h := mk(t, ringSize+1)
	defer closeH(h)
	cfg := tierConfig(tier)
	nw, err := core.BuildNetwork(h.Tr, ringSize, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	h.Advance(20 * tick)

	const victim = transport.Addr(7)
	killed := make(chan struct{})
	h.Tr.After(victim, 0, func() { nw.Ring.Kill(victim); close(killed) })
	// The kill runs on the victim's goroutine and this one reads the ring
	// below: wait for it, without letting virtual time pass.
	for ran := false; !ran; {
		select {
		case <-killed:
			ran = true
		default:
			h.Advance(0)
		}
	}

	// The failure detector (stabilization probes) must notice the crash:
	// on the finger tier no live node keeps the victim as its first
	// successor, and on the one-hop tier EDRA must spread it to every
	// live node.
	waitFor(t, h, 60*time.Second, func() bool {
		for i := 0; i < ringSize; i++ {
			addr := transport.Addr(i)
			switch {
			case addr == victim:
			case tier == core.TierOneHop:
				if tierEntries(t, h, nw, addr) != ringSize-1 {
					return false
				}
			case firstSuccessor(t, h, nw, addr).Addr == victim:
				return false
			}
		}
		return true
	}, "the crashed node was never dropped")

	// Ownership moved: lookups for any key must match the post-kill ring.
	node := nw.Node(0)
	for j := 0; j < 4; j++ {
		key := id.ID(uint64(j)*0xbf58476d1ce4e5b9 + 3)
		owner, _, err := lookupFrom(t, h, node, key)
		if err != nil {
			t.Errorf("post-kill lookup of %v failed: %v", key, err)
			continue
		}
		if want := nw.Ring.Owner(key); owner.ID != want.ID {
			t.Errorf("post-kill lookup of %v resolved to %v, want %v", key, owner, want)
		}
	}

	// Rejoin through a live bootstrap: the joiner must pull a full table
	// (one-hop) and every node must learn it within the window.
	bootstrap := nw.Node(0).Chord.Self
	joined := make(chan error, 1)
	h.Tr.After(victim, 0, func() {
		nw.Rejoin(victim, bootstrap, cfg, func(_ *core.Node, err error) {
			joined <- err
		})
	})
	waitFor(t, h, 60*time.Second, func() bool {
		select {
		case err := <-joined:
			if err != nil {
				t.Fatalf("rejoin failed: %v", err)
			}
			return true
		default:
			return false
		}
	}, "rejoin never completed")

	if tier == core.TierOneHop {
		waitFor(t, h, 60*time.Second, func() bool {
			for i := 0; i < ringSize; i++ {
				if tierEntries(t, h, nw, transport.Addr(i)) != ringSize {
					return false
				}
			}
			return true
		}, "one-hop tables never re-converged after the rejoin")
	}
}

// testIdleQuiescence: an idle ring generates zero tier maintenance
// traffic — EDRA only speaks when there are events to report.
func testIdleQuiescence(t *testing.T, mk transporttest.Factory, tier string) {
	h := mk(t, ringSize+1)
	defer closeH(h)
	nw, err := core.BuildNetwork(h.Tr, ringSize, tierConfig(tier))
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	// Let bootstrap-time activity (if any) settle before sampling.
	h.Advance(20 * tick)
	before := maintenanceBytes(t, h, nw, ringSize)
	h.Advance(40 * tick) // 8 maintain intervals of pure idleness
	after := maintenanceBytes(t, h, nw, ringSize)
	if after != before {
		t.Errorf("tier maintenance traffic grew while idle: %d -> %d bytes", before, after)
	}
	if tier == core.TierFinger && after != 0 {
		t.Errorf("finger tier accounted %d maintenance bytes, want 0", after)
	}
}

// waitFor pumps the harness until cond holds or the deadline passes.
func waitFor(t *testing.T, h transporttest.Harness, timeout time.Duration,
	cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		h.Advance(5 * tick)
	}
}
