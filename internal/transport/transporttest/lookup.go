package transporttest

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Concurrent-lookup conformance: the serving-path counterpart to the churn
// suite. It runs the full Octopus stack over the backend under test and
// hammers a handful of shared nodes with overlapping anonymous lookups —
// N client goroutines × M lookups each, submitted through the
// LookupService — then verifies every answer against the deterministic
// initial topology. Under -race this pins the whole concurrent hot path:
// α-parallel query windows, the managed relay-pair pool's walk-ahead
// refills, atomic stats, and the service's queueing, on simnet and on
// nettransport in one and in two processes.

// lookupRingSize is the served ring's population (+1 slot for the CA).
const lookupRingSize = 16

// RunLookupConformance runs the concurrent-lookup suite against the
// factory.
func RunLookupConformance(t *testing.T, mk Factory) {
	defer CheckGoroutineLeak(t, runtime.NumGoroutine())
	t.Run("ConcurrentAnonLookups", func(t *testing.T) { testConcurrentLookups(t, mk) })
}

// lookupCoreConfig tunes the stack for suite wall time: fast walks so the
// managed pool stocks quickly, α-parallel queries, short timeouts.
func lookupCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = lookupRingSize
	cfg.LookupParallelism = 3
	cfg.PairPoolTarget = 8
	cfg.WalkEvery = 10 * tick
	cfg.SurveilEvery = 50 * tick
	cfg.QueryTimeout = 100 * tick
	cfg.Chord.StabilizeEvery = 5 * tick
	cfg.Chord.FixFingersEvery = 50 * tick
	cfg.Chord.RPCTimeout = 25 * tick
	return cfg
}

func testConcurrentLookups(t *testing.T, mk Factory) {
	const (
		clients           = 4
		lookupsPerClient  = 4
		servingNodes      = 2 // lookups share nodes, so their windows overlap
		completionTimeout = 90 * time.Second
	)
	h := mk(t, lookupRingSize+1)
	defer closeH(h)
	cfg := lookupCoreConfig()
	nw, err := core.BuildNetwork(h.Tr, lookupRingSize, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}

	// Let stabilization and the first pool refills land.
	h.Advance(20 * tick)

	services := make([]*core.LookupService, servingNodes)
	for i := range services {
		services[i] = core.NewLookupService(nw.Node(transport.Addr(i)), core.ServiceConfig{
			Workers:   4,
			Queue:     clients * lookupsPerClient,
			PerClient: lookupsPerClient + 1,
		})
	}

	type outcome struct {
		key   id.ID
		owner chord.Peer
		err   error
	}
	results := make(chan outcome, clients*lookupsPerClient)
	submit := func(client int) {
		svc := services[client%servingNodes]
		name := string(rune('a' + client))
		for j := 0; j < lookupsPerClient; j++ {
			key := id.ID(uint64(client*lookupsPerClient+j)*0x9e3779b97f4a7c15 + 1)
			svc.Enqueue(name, key, func(res core.ServiceResult) {
				results <- outcome{key: key, owner: res.Owner, err: res.Err}
			})
		}
	}
	if h.Concurrent {
		// Real client goroutines, racing submissions against live
		// protocol traffic.
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				submit(c)
			}(c)
		}
		wg.Wait()
	} else {
		// The simulator is pumped from this goroutine only; the lookups
		// still overlap in virtual time because nothing awaits between
		// submissions.
		for c := 0; c < clients; c++ {
			submit(c)
		}
	}

	deadline := time.Now().Add(completionTimeout)
	got := 0
	correct := 0
	for got < clients*lookupsPerClient {
		select {
		case out := <-results:
			got++
			if out.err != nil {
				t.Errorf("lookup of %v failed: %v", out.key, out.err)
				continue
			}
			want := nw.Ring.Owner(out.key)
			if out.owner.ID != want.ID {
				t.Errorf("lookup of %v resolved to %v, want %v", out.key, out.owner, want)
				continue
			}
			correct++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d lookups completed", got, clients*lookupsPerClient)
			}
			h.Advance(2 * tick)
		}
	}
	if correct != clients*lookupsPerClient {
		t.Errorf("%d/%d lookups verified", correct, clients*lookupsPerClient)
	}

	// The managed pools must have been doing walk-ahead work for the
	// services, not just the WalkEvery timer.
	var refills uint64
	for i := 0; i < servingNodes; i++ {
		refills += nw.Node(transport.Addr(i)).Stats().RefillWalks.Load()
	}
	if refills == 0 {
		t.Error("managed pool never launched a walk-ahead refill")
	}
}
