package core

import (
	"errors"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// TestLookupServiceBackpressure pins the service contract: a bounded
// worker pool, a bounded queue answering ErrServiceBusy, and a per-client
// quota answering ErrClientBusy — all deterministic on the simulator.
func TestLookupServiceBackpressure(t *testing.T) {
	sim := simnet.New(31)
	const n = 60
	cfg := DefaultConfig()
	cfg.EstimatedSize = n
	cfg.WalkEvery = 5 * time.Second
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n+1)
	nw, err := BuildNetwork(net, n, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	sim.Run(90 * time.Second) // stock the relay pool

	svc := NewLookupService(nw.Node(0), ServiceConfig{Workers: 2, Queue: 3, PerClient: 4})
	var ok, clientBusy, queueBusy, failed int
	var waited time.Duration
	record := func(res ServiceResult) {
		switch {
		case res.Err == nil:
			ok++
			waited += res.Wait
		case errors.Is(res.Err, ErrClientBusy):
			clientBusy++
		case errors.Is(res.Err, ErrServiceBusy):
			queueBusy++
		default:
			failed++
		}
	}
	key := func(i int) id.ID { return id.ID(uint64(i)*0x9e3779b97f4a7c15 + 3) }
	// Client "a" submits 6: 2 start, 2 queue, then its quota of 4
	// queued+running is spent and the rest bounce.
	for i := 0; i < 6; i++ {
		svc.Enqueue("a", key(i), record)
	}
	// Client "b" submits 3: 1 fills the queue's last slot, 2 bounce off
	// the full queue.
	for i := 6; i < 9; i++ {
		svc.Enqueue("b", key(i), record)
	}
	sim.Run(sim.Now() + 5*time.Minute)

	if ok != 5 || failed != 0 {
		t.Errorf("completed %d (failed %d), want 5 successes", ok, failed)
	}
	if clientBusy != 2 {
		t.Errorf("ErrClientBusy %d, want 2", clientBusy)
	}
	if queueBusy != 2 {
		t.Errorf("ErrServiceBusy %d, want 2", queueBusy)
	}
	if waited == 0 {
		t.Error("queued lookups reported zero wait time")
	}
	st := svc.Stats()
	if st.Submitted.Load() != 9 || st.Completed.Load() != 5 || st.Active.Load() != 0 || st.Queued.Load() != 0 {
		t.Errorf("stats = %d submitted / %d completed / %d active / %d queued, want 9 / 5 / idle",
			st.Submitted.Load(), st.Completed.Load(), st.Active.Load(), st.Queued.Load())
	}

	// After the quota drains, the same clients are served again.
	served := 0
	svc.Enqueue("a", key(100), func(res ServiceResult) {
		if res.Err == nil {
			served++
		}
	})
	sim.Run(sim.Now() + 2*time.Minute)
	if served != 1 {
		t.Error("client quota did not release after completion")
	}

	// Cancellation: a queued job is withdrawn and releases its quota
	// without its callback ever firing; cancelling a running or finished
	// job is a harmless no-op.
	var cancelled, ran int
	var cancels []func()
	for i := 0; i < 3; i++ { // fill both worker slots + queue one
		i := i
		cancels = append(cancels, svc.EnqueueCancellable("c", key(200+i), func(res ServiceResult) {
			ran++
			_ = i
		}))
	}
	sim.Run(sim.Now() + time.Millisecond) // submits land; third job queues
	if q := svc.Stats().Queued.Load(); q != 1 {
		t.Fatalf("expected 1 queued job before cancel, got %d", q)
	}
	cancels[2]() // withdraw the queued one
	cancels[2]() // double-cancel must be safe
	sim.Run(sim.Now() + 2*time.Minute)
	cancelled = 3 - ran
	if cancelled != 1 {
		t.Errorf("expected exactly the queued job cancelled: ran %d of 3", ran)
	}
	cancels[0]() // already completed: no-op
	sim.Run(sim.Now() + time.Minute)
	if st := svc.Stats(); st.Active.Load() != 0 || st.Queued.Load() != 0 {
		t.Errorf("service not idle after cancellations: %d active, %d queued", st.Active.Load(), st.Queued.Load())
	}
	served = 0
	svc.Enqueue("c", key(300), func(res ServiceResult) {
		if res.Err == nil {
			served++
		}
	})
	sim.Run(sim.Now() + 2*time.Minute)
	if served != 1 {
		t.Error("client quota not released by cancellation")
	}

	// Close rejects queued work and refuses new submissions.
	svc.Close()
	closed := 0
	svc.Enqueue("a", key(101), func(res ServiceResult) {
		if errors.Is(res.Err, ErrServiceClosed) {
			closed++
		}
	})
	sim.Run(sim.Now() + time.Minute)
	if closed != 1 {
		t.Error("Enqueue after Close did not report ErrServiceClosed")
	}
}
