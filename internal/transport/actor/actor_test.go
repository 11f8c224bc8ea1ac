package actor_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/transport/actor"
)

// TestMailboxFIFOAcrossGrowth grows the ring while its head is mid-slice:
// 20 posts, the loop parks on the 10th, 40 more arrive from another
// goroutine, and all 60 must still run in posting order.
func TestMailboxFIFOAcrossGrowth(t *testing.T) {
	var wg sync.WaitGroup
	h := actor.Start(&wg)
	defer func() { h.Close(); wg.Wait() }()

	var order []int // touched only on the host loop until done closes
	reached, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	post := func(i int) {
		h.Post(func() {
			order = append(order, i)
			if i == 9 {
				close(reached)
				<-release
			}
		})
	}
	for i := 0; i < 20; i++ {
		post(i)
	}
	<-reached
	posted := make(chan struct{})
	go func() {
		for i := 20; i < 60; i++ {
			post(i)
		}
		h.Post(func() { close(done) })
		close(posted)
	}()
	<-posted
	close(release)
	<-done
	if len(order) != 60 {
		t.Fatalf("ran %d closures, want 60", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d ran closure %d: order %v", i, v, order)
		}
	}
}

// TestCloseDrainsThenDrops: Close lets the loop finish what was queued
// before it and refuses everything posted after it.
func TestCloseDrainsThenDrops(t *testing.T) {
	var wg sync.WaitGroup
	h := actor.Start(&wg)
	gate := make(chan struct{})
	h.Post(func() { <-gate })
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		if !h.Post(func() { ran.Add(1) }) {
			t.Fatal("Post before Close refused")
		}
	}
	h.Close()
	h.Close() // idempotent
	if h.Post(func() { ran.Add(100) }) {
		t.Error("Post after Close accepted")
	}
	close(gate)
	wg.Wait()
	if got := ran.Load(); got != 5 {
		t.Errorf("ran = %d, want the 5 closures posted before Close", got)
	}
}

// TestNilHostTimersNeverFire: a slot this process does not serve is a nil
// *Host; its timers never run fn and their cancels are safe.
func TestNilHostTimersNeverFire(t *testing.T) {
	var h *actor.Host
	var fired atomic.Bool
	fn := func() { fired.Store(true) }
	tm := h.After(0, fn)
	stop := h.Every(time.Millisecond, fn)
	if h.Post(fn) {
		t.Error("Post on a nil host accepted")
	}
	time.Sleep(20 * time.Millisecond)
	tm.Cancel()
	tm.Cancel()
	stop()
	stop()
	h.Close()
	if fired.Load() {
		t.Error("a nil host ran fn")
	}
}
