package daemon

import (
	"fmt"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// fakeClock is the limiter's injected clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLimiter() (*admissionLimiter, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	return newAdmissionLimiter(clk.now), clk
}

// admitN asks for n admissions from endpoint and reports how many passed.
func admitN(l *admissionLimiter, endpoint string, n int) int {
	ok := 0
	for i := 0; i < n; i++ {
		if l.admit(endpoint) {
			ok++
		}
	}
	return ok
}

// TestAdmissionLimiter covers the CA's admission policy on a fake clock:
// the numbers operators are told (8 per endpoint per hour, 32 ring-wide per
// hour) and the release rules around retirement.
func TestAdmissionLimiter(t *testing.T) {
	const a, b = "10.0.0.1:9000", "10.0.0.2:9000"

	t.Run("empty endpoint is refused", func(t *testing.T) {
		l, _ := newTestLimiter()
		if l.admit("") {
			t.Fatal("admitted a request without an endpoint")
		}
		if len(l.global) != 0 {
			t.Fatalf("a refused request was charged: global=%d", len(l.global))
		}
	})

	t.Run("per-endpoint cap", func(t *testing.T) {
		l, _ := newTestLimiter()
		if got := admitN(l, a, maxGrantsPerEndpoint+3); got != maxGrantsPerEndpoint {
			t.Fatalf("endpoint a: %d admissions, want %d", got, maxGrantsPerEndpoint)
		}
		if !l.admit(b) {
			t.Fatal("endpoint b refused because endpoint a is at its cap")
		}
		if got := len(l.global); got != maxGrantsPerEndpoint+1 {
			t.Fatalf("refusals were charged to the global window: %d", got)
		}
	})

	t.Run("global cap", func(t *testing.T) {
		l, _ := newTestLimiter()
		for i := 0; i < maxGrantsGlobal/maxGrantsPerEndpoint; i++ {
			ep := fmt.Sprintf("10.0.1.%d:9000", i)
			if got := admitN(l, ep, maxGrantsPerEndpoint); got != maxGrantsPerEndpoint {
				t.Fatalf("%s: %d admissions, want %d", ep, got, maxGrantsPerEndpoint)
			}
		}
		if l.admit("10.0.2.1:9000") {
			t.Fatalf("a fresh endpoint was admitted past the global cap of %d", maxGrantsGlobal)
		}
	})

	t.Run("window expiry re-admits", func(t *testing.T) {
		l, clk := newTestLimiter()
		admitN(l, a, maxGrantsPerEndpoint)
		clk.advance(grantWindow - time.Second)
		if l.admit(a) {
			t.Fatal("admitted inside the window")
		}
		clk.advance(2 * time.Second)
		if got := admitN(l, a, maxGrantsPerEndpoint+1); got != maxGrantsPerEndpoint {
			t.Fatalf("after the window aged out: %d admissions, want %d", got, maxGrantsPerEndpoint)
		}
		if got := len(l.global); got != maxGrantsPerEndpoint {
			t.Fatalf("global window kept expired grants: %d", got)
		}
	})

	t.Run("retire releases one endpoint grant, never the global count", func(t *testing.T) {
		l, _ := newTestLimiter()
		admitN(l, a, maxGrantsPerEndpoint)
		l.retire(a, 20)
		if got := admitN(l, a, 2); got != 1 {
			t.Fatalf("one retirement released %d endpoint grants, want 1", got)
		}
		if got := len(l.global); got != maxGrantsPerEndpoint+1 {
			t.Fatalf("global window holds %d grants, want %d (retirement must not release it)", got, maxGrantsPerEndpoint+1)
		}
		// Fill the global window, then retire everything: still closed.
		for i := 0; len(l.global) < maxGrantsGlobal; i++ {
			if !l.admit(fmt.Sprintf("10.0.3.%d:9000", i)) {
				t.Fatalf("admission %d refused below the global cap", len(l.global))
			}
		}
		for i := 0; i < maxGrantsGlobal; i++ {
			l.retire(a, transport.Addr(30+i))
		}
		if l.admit(b) {
			t.Fatal("a join/retire loop reopened the global window")
		}
	})

	t.Run("retire prunes before dropping", func(t *testing.T) {
		// One grant that will have expired, seven that will not. A drop
		// taken before pruning would consume the expired timestamp and
		// release nothing: 7 live grants would remain instead of 6.
		l, clk := newTestLimiter()
		l.admit(a)
		clk.advance(30 * time.Minute)
		admitN(l, a, maxGrantsPerEndpoint-1)
		clk.advance(31 * time.Minute)
		l.retire(a, 20)
		if got := admitN(l, a, 3); got != 2 {
			t.Fatalf("%d admissions after the retirement, want 2 (6 live grants below a cap of %d)", got, maxGrantsPerEndpoint)
		}
	})

	t.Run("dead endpoint keys are deleted", func(t *testing.T) {
		l, clk := newTestLimiter()
		l.admit(a)
		l.admit(a)
		l.admit(b)
		l.retire(b, 20) // b's only grant: the key goes with it
		if _, ok := l.endpoint[b]; ok {
			t.Fatal("endpoint b still has a key after its last grant retired")
		}
		clk.advance(grantWindow + time.Second)
		l.admit(b) // a never comes back; someone else's request expires its key
		if _, ok := l.endpoint[a]; ok {
			t.Fatal("endpoint a still has a key after all its grants aged out")
		}
		if len(l.endpoint) != 1 {
			t.Fatalf("limiter tracks %d endpoints, want 1", len(l.endpoint))
		}
	})
}

// TestAdmissionLimiterSlotReuse checks that retired slots are rebound, most
// recently retired first, before the endpoint table grows.
func TestAdmissionLimiterSlotReuse(t *testing.T) {
	tr, err := nettransport.New(nettransport.Config{Listen: "127.0.0.1:0", Self: "self", Endpoints: []string{"self", "x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, _ := newTestLimiter()

	if _, ok := l.alloc("", tr); ok {
		t.Fatal("allocated a slot for an empty endpoint")
	}
	if addr, _ := l.alloc("j1", tr); addr != 3 {
		t.Fatalf("first joiner got slot %d, want a new slot 3", addr)
	}
	if addr, _ := l.alloc("j2", tr); addr != 4 {
		t.Fatalf("second joiner got slot %d, want a new slot 4", addr)
	}
	l.retire("j1", 3)
	l.retire("j2", 4)
	for i, want := range []transport.Addr{4, 3, 5} { // LIFO, then growth
		ep := fmt.Sprintf("j%d", 3+i)
		addr, ok := l.alloc(ep, tr)
		if !ok || addr != want {
			t.Fatalf("allocation %d: slot %d ok=%v, want slot %d", i, addr, ok, want)
		}
		if got := tr.Endpoint(addr); got != ep {
			t.Fatalf("slot %d is bound to %q, want %q", addr, got, ep)
		}
	}
	if got := tr.Size(); got != 6 {
		t.Fatalf("endpoint table has %d slots, want 6 (two reused, three added)", got)
	}
}
