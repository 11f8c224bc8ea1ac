package transporttest

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
)

// RunCloseContract pins the half of transport.Transport.Call's contract
// that Close can break: a Call made before Close gets exactly one callback
// (a response, ErrTimeout or ErrClosed) by the time Close has returned.
// Each round builds a fresh two-host harness, issues one call from the test
// goroutine, so that it is in flight before Close starts, and closes at once.
// A transport that runs nothing unless driven (simnet) has no Close: its
// calls settle as its clock runs, so the suite runs the clock past every
// deadline of the round instead. rounds sets how many rounds the settling
// race makes.
func RunCloseContract(t *testing.T, mk Factory, rounds int) {
	defer CheckGoroutineLeak(t, runtime.NumGoroutine())
	t.Run("CallRacingClose", func(t *testing.T) { testCallRacingClose(t, mk) })
	t.Run("CallSettlingDuringClose", func(t *testing.T) { testCallSettlingDuringClose(t, mk, rounds) })
}

func dropHandler(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false }

// closeAndSettle closes h and, on a transport that runs nothing unless
// driven, runs its clock on by d, past the longest deadline of the round.
func closeAndSettle(h Harness, d time.Duration) {
	closeH(h)
	if !h.Concurrent {
		h.Advance(d)
	}
}

// testCallRacingClose closes the transport while a call is queued for or
// inside a handler that never answers.
func testCallRacingClose(t *testing.T, mk Factory) {
	for i := range 20 {
		h := mk(t, 2)
		h.Tr.Bind(0, dropHandler)
		h.Tr.Bind(1, dropHandler)
		var calls atomic.Int32
		errs := make(chan error, 2) // room for a wrong second callback, so it cannot block
		h.Tr.Call(0, 1, Echo{N: 1}, time.Minute, func(_ transport.Message, err error) {
			calls.Add(1)
			errs <- err
		})
		closeAndSettle(h, 2*time.Minute)
		if n := calls.Load(); n != 1 {
			t.Fatalf("round %d: %d callbacks, want 1", i, n)
		}
		if err := <-errs; !errors.Is(err, transport.ErrClosed) && !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("round %d: err = %v, want ErrClosed or ErrTimeout", i, err)
		}
	}
}

// testCallSettlingDuringClose races a call's settlement against Close: a
// call to an echo host with a timeout of 0–49 µs, followed at once by
// Close. Whichever settles it (the response, the timer or Close's drain),
// the call gets exactly one callback.
func testCallSettlingDuringClose(t *testing.T, mk Factory, rounds int) {
	rng := rand.New(rand.NewSource(1))
	for i := range rounds {
		h := mk(t, 2)
		h.Tr.Bind(0, dropHandler)
		h.Tr.Bind(1, func(_ transport.Addr, m transport.Message) (transport.Message, bool) { return m, true })
		var calls atomic.Int32
		timeout := time.Duration(rng.Intn(50)) * time.Microsecond
		h.Tr.Call(0, 1, Echo{N: 1}, timeout, func(transport.Message, error) { calls.Add(1) })
		closeAndSettle(h, time.Second)
		if n := calls.Load(); n != 1 {
			t.Fatalf("round %d (timeout %v): %d callbacks, want 1", i, timeout, n)
		}
	}
}
