package simnet

import (
	"math/rand"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events must fire in scheduling order, got %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.After(time.Second, func() { fired = true })
	timer.Cancel()
	if s.Pending() != 0 {
		t.Errorf("pending = %d after Cancel, want 0: a cancelled timer leaves the queue", s.Pending())
	}
	s.RunAll()
	if fired {
		t.Error("cancelled timer fired")
	}
	if s.Fired() != 0 {
		t.Errorf("Fired() = %d, want 0: a cancelled event is not an executed one", s.Fired())
	}
}

// TestQueueMatchesSortedModel drives random interleavings of After and Cancel
// — from outside and from inside running callbacks — against a reference that
// is nothing but a list searched for its least live (at, seq). The victims of
// Cancel are drawn from every timer ever made, so they include timers that
// already fired, timers cancelled before, same-instant siblings of the
// running event and the running timer itself; delays of 0 and -1 re-enter the
// current instant.
func TestQueueMatchesSortedModel(t *testing.T) {
	type ref struct {
		at   time.Duration
		live bool
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		var model []ref // indexed by scheduling order, which is seq
		var timers []*Timer
		lastFired := -1
		cancel := func(id int) {
			timers[id].Cancel()
			model[id].live = false
		}
		var schedule func()
		schedule = func() {
			if len(timers) >= 4000 {
				return
			}
			id, delay := len(timers), time.Duration(rng.Intn(5)-1)
			model = append(model, ref{at: s.Now() + max(delay, 0), live: true})
			timers = append(timers, s.After(delay, func() {
				lastFired = id
				for k := rng.Intn(5); k > 0; k-- {
					switch rng.Intn(8) {
					case 0:
						cancel(id) // itself, while firing
					case 1, 2:
						victim := rng.Intn(len(timers))
						cancel(victim)
						cancel(victim) // twice
					default:
						schedule()
					}
				}
			}))
		}
		for i := 0; i < 300; i++ {
			schedule()
		}
		for i := 0; i < 40; i++ {
			cancel(rng.Intn(len(timers)))
		}
		for fired := uint64(0); ; fired++ {
			next, live := -1, 0
			for id, r := range model {
				if !r.live {
					continue
				}
				live++
				if next < 0 || r.at < model[next].at { // ids ascend, so ties keep the lower seq
					next = id
				}
			}
			if s.Pending() != live {
				t.Fatalf("seed %d after %d events: Pending() = %d, model has %d live", seed, fired, s.Pending(), live)
			}
			if s.Fired() != fired {
				t.Fatalf("seed %d: Fired() = %d after %d executed events", seed, s.Fired(), fired)
			}
			if next < 0 {
				if s.Step() {
					t.Fatalf("seed %d: Step ran an event the model does not have", seed)
				}
				if fired < 1000 {
					t.Fatalf("seed %d: only %d events ran; the script is too short to mean anything", seed, fired)
				}
				break
			}
			model[next].live = false
			if !s.Step() {
				t.Fatalf("seed %d: queue empty, model expects timer %d", seed, next)
			}
			if lastFired != next || s.Now() != model[next].at {
				t.Fatalf("seed %d event %d: fired timer %d at %v, model expects %d at %v",
					seed, fired, lastFired, s.Now(), next, model[next].at)
			}
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	s.After(5*time.Second, func() {})
	s.Run(5 * time.Second)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.RunAll()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if s.Now() != 5*time.Second {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	n := s.Run(2 * time.Second)
	if n != 2 {
		t.Errorf("Run returned %d events, want 2", n)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestRunAdvancesClockWithoutEvents(t *testing.T) {
	s := New(1)
	s.Run(10 * time.Second)
	if s.Now() != 10*time.Second {
		t.Errorf("clock = %v, want 10s", s.Now())
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	count := 0
	stop := s.Every(time.Second, func() { count++ })
	s.Run(5500 * time.Millisecond)
	if count != 5 {
		t.Errorf("periodic fired %d times, want 5", count)
	}
	stop()
	s.Run(20 * time.Second)
	if count != 5 {
		t.Errorf("periodic fired after stop: %d", count)
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	s := New(1)
	count := 0
	var stop func()
	stop = s.Every(time.Second, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	s.Run(time.Minute)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(42)
		var out []time.Duration
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.After(d, func() { out = append(out, s.Now()) })
		}
		s.RunAll()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

type testMsg struct{ bytes int }

func (m testMsg) Size() int { return m.bytes }

// seqMsg is a payload that tells one request or response from another.
type seqMsg struct{ seq int }

func (seqMsg) Size() int { return 8 }

func TestRPCRoundTrip(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 10 * time.Millisecond}, 2)
	n.Bind(1, func(from Address, req Message) (Message, bool) {
		if from != 0 {
			t.Errorf("from = %v, want 0", from)
		}
		return testMsg{bytes: 200}, true
	})
	var gotResp Message
	var gotErr error
	n.Call(0, 1, testMsg{bytes: 100}, time.Second, func(m Message, err error) {
		gotResp, gotErr = m, err
	})
	s.RunAll()
	if gotErr != nil {
		t.Fatalf("rpc error: %v", gotErr)
	}
	if gotResp.Size() != 200 {
		t.Errorf("resp size = %d, want 200", gotResp.Size())
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("round trip took %v, want 20ms", s.Now())
	}
}

func TestRPCTimeoutDeadNode(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 10 * time.Millisecond}, 2)
	n.Bind(1, func(Address, Message) (Message, bool) { return testMsg{}, true })
	n.SetAlive(1, false)
	var gotErr error
	n.Call(0, 1, testMsg{bytes: 1}, 500*time.Millisecond, func(m Message, err error) { gotErr = err })
	s.RunAll()
	if gotErr != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", gotErr)
	}
	if s.Now() != 500*time.Millisecond {
		t.Errorf("timeout fired at %v, want 500ms", s.Now())
	}
}

func TestRPCDropByHandler(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(1, func(Address, Message) (Message, bool) { return nil, false })
	var gotErr error
	n.Call(0, 1, testMsg{bytes: 1}, 100*time.Millisecond, func(m Message, err error) { gotErr = err })
	s.RunAll()
	if gotErr != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", gotErr)
	}
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

func TestRPCUnreachable(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 1)
	var gotErr error
	n.Call(0, 55, testMsg{}, time.Second, func(m Message, err error) { gotErr = err })
	s.RunAll()
	if gotErr != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", gotErr)
	}
}

// TestTimeoutDoesNotDoubleFire: an answered call hears its response once,
// and every way a call can die unanswered — request lost by the fault layer,
// dead host, handler drop, response lost, a response that lands after the
// deadline, a request still in flight at the deadline and then dropped — ends
// in exactly one ErrTimeout at the deadline; a late response never reaches
// the caller. Two calls made while the late legs are still queued each get
// their own answer.
func TestTimeoutDoesNotDoubleFire(t *testing.T) {
	const lat, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	cases := []struct {
		name  string
		setup func(n *Network)
		want  error
	}{
		{"answered", func(*Network) {}, nil},
		{"request lost in flight", func(n *Network) { n.InstallFaults().SetLinkLoss(0, 1, 1) }, ErrTimeout},
		{"dead host", func(n *Network) { n.SetAlive(1, false) }, ErrTimeout},
		{"handler drops", func(n *Network) {
			n.Bind(1, func(Address, Message) (Message, bool) { return nil, false })
		}, ErrTimeout},
		{"response lost in flight", func(n *Network) { n.InstallFaults().SetLinkLoss(1, 0, 1) }, ErrTimeout},
		{"response lands after the deadline", func(n *Network) {
			n.lat = ConstantLatency{D: timeout * 3 / 4}
		}, ErrTimeout},
		{"request outlives the deadline, then dropped", func(n *Network) {
			n.lat = ConstantLatency{D: 2 * timeout}
			n.SetAlive(1, false)
		}, ErrTimeout},
		{"request and response both outlive the deadline", func(n *Network) {
			n.lat = ConstantLatency{D: 2 * timeout}
		}, ErrTimeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			n := NewNetwork(s, ConstantLatency{D: lat}, 3)
			echo := func(_ Address, req Message) (Message, bool) { return req, true }
			n.Bind(1, echo)
			n.Bind(2, echo)
			c.setup(n)
			var errs []error
			n.Call(0, 1, seqMsg{seq: 1}, timeout, func(_ Message, err error) { errs = append(errs, err) })
			s.Run(timeout)
			if len(errs) != 1 || errs[0] != c.want {
				t.Fatalf("by the deadline the caller heard %v, want one %v", errs, c.want)
			}
			got := [2]int{}
			for i := range got {
				n.Call(0, 2, seqMsg{seq: 10 + i}, time.Second, func(m Message, err error) {
					if err == nil {
						got[i] = m.(seqMsg).seq
					}
				})
			}
			s.RunAll()
			if len(errs) != 1 {
				t.Fatalf("the caller heard %v, want nothing after the deadline", errs)
			}
			if got != [2]int{10, 11} {
				t.Errorf("two calls made meanwhile were answered %v, want [10 11]", got)
			}
		})
	}
}

// TestChainedCallsKeepTheirOwnResponses chains calls from inside callbacks,
// with a Send and a second Call riding along, and checks every callback
// against the request it was registered for.
func TestChainedCallsKeepTheirOwnResponses(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 3)
	oneWay := 0
	n.Bind(1, func(_ Address, req Message) (Message, bool) {
		return seqMsg{seq: req.(seqMsg).seq + 1_000_000}, true
	})
	n.Bind(2, func(_ Address, req Message) (Message, bool) {
		oneWay += req.(seqMsg).seq
		return nil, false
	})
	const chain = 1000
	answered, side := 0, 0
	var next func(i int)
	next = func(i int) {
		n.Call(0, 1, seqMsg{seq: i}, time.Second, func(resp Message, err error) {
			if err != nil || resp.(seqMsg).seq != i+1_000_000 {
				t.Fatalf("call %d answered with %v, %v", i, resp, err)
			}
			answered++
			if i+1 < chain {
				n.Send(0, 2, seqMsg{seq: i})
				next(i + 1)
				n.Call(0, 1, seqMsg{seq: -i}, time.Second, func(resp Message, err error) {
					if err != nil || resp.(seqMsg).seq != -i+1_000_000 {
						t.Fatalf("side call %d answered with %v, %v", i, resp, err)
					}
					side++
				})
			}
		})
	}
	next(0)
	s.RunAll()
	if answered != chain || side != chain-1 || oneWay != (chain-1)*(chain-2)/2 {
		t.Fatalf("%d chained and %d side calls answered, one-way sum %d; want %d, %d, %d",
			answered, side, oneWay, chain, chain-1, (chain-1)*(chain-2)/2)
	}
}

// TestAnsweredCallsLeaveNothingQueued: an answered RPC takes its timeout out
// of the queue when the answer arrives, not when the deadline passes.
func TestAnsweredCallsLeaveNothingQueued(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(1, func(_ Address, req Message) (Message, bool) { return req, true })
	s.After(time.Hour, func() {}) // something unrelated stays queued throughout
	before := s.Pending()
	const calls = 10000
	answered := 0
	for i := 0; i < calls; i++ {
		n.Call(0, 1, testMsg{bytes: 1}, time.Minute, func(_ Message, err error) {
			if err == nil {
				answered++
			}
		})
	}
	if s.Pending() != before+2*calls {
		t.Fatalf("pending = %d with %d calls in flight, want a deadline and a leg each", s.Pending(), calls)
	}
	s.Run(time.Second) // far short of any deadline
	if answered != calls {
		t.Fatalf("%d of %d calls answered", answered, calls)
	}
	if s.Pending() != before {
		t.Errorf("pending = %d once every call is answered, want %d as before the calls", s.Pending(), before)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(0, func(Address, Message) (Message, bool) { return nil, false })
	n.Bind(1, func(Address, Message) (Message, bool) { return testMsg{bytes: 70}, true })
	n.Call(0, 1, testMsg{bytes: 30}, time.Second, func(Message, error) {})
	s.RunAll()
	if got := n.Stats(0); got.BytesSent != 30 || got.BytesReceived != 70 {
		t.Errorf("caller stats = %+v", got)
	}
	if got := n.Stats(1); got.BytesSent != 70 || got.BytesReceived != 30 {
		t.Errorf("callee stats = %+v", got)
	}
}

func TestSendOneWay(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 3 * time.Millisecond}, 2)
	var got Message
	n.Bind(1, func(from Address, req Message) (Message, bool) {
		got = req
		return nil, false
	})
	n.Send(0, 1, testMsg{bytes: 9})
	s.RunAll()
	if got == nil || got.Size() != 9 {
		t.Errorf("one-way message not delivered: %v", got)
	}
}

// TestSendsChainedFromHandlerArriveInOrder: each delivery sends the next
// message from inside its handler, and a Send to a dead host counts exactly
// one drop.
func TestSendsChainedFromHandlerArriveInOrder(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 3)
	var got []int
	n.Bind(1, func(_ Address, m Message) (Message, bool) {
		seq := m.(seqMsg).seq
		got = append(got, seq)
		if seq < 100 {
			n.Send(1, 1, seqMsg{seq: seq + 1})
		}
		return nil, false
	})
	n.Bind(2, func(Address, Message) (Message, bool) { return nil, false })
	n.SetAlive(2, false)
	n.Send(0, 1, seqMsg{seq: 0})
	n.Send(0, 2, seqMsg{seq: -1})
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("deliveries %v, want 0..100 in order", got)
		}
	}
	if len(got) != 101 || n.Dropped() != 1 {
		t.Errorf("%d deliveries, %d dropped; want 101, 1", len(got), n.Dropped())
	}
}

func TestChurnerLifecycle(t *testing.T) {
	s := New(7)
	c := NewChurner(s, 10*time.Second)
	deaths, rejoins := 0, 0
	c.OnDeath = func(Address) { deaths++ }
	c.OnRejoin = func(Address) { rejoins++ }
	for i := 0; i < 50; i++ {
		c.Track(Address(i))
	}
	s.Run(10 * time.Minute)
	if deaths == 0 {
		t.Fatal("no churn occurred")
	}
	if rejoins != deaths {
		t.Errorf("rejoins = %d, deaths = %d; every death must be followed by a rejoin", rejoins, deaths)
	}
	// With mean lifetime 10s over 600s and 50 slots, expect roughly
	// 50*600/10 = 3000 deaths; allow generous tolerance.
	if deaths < 1500 || deaths > 4500 {
		t.Errorf("deaths = %d, far from expected ~3000", deaths)
	}
}

func TestChurnerDisabled(t *testing.T) {
	s := New(7)
	c := NewChurner(s, 0)
	c.OnDeath = func(Address) { t.Error("death with churn disabled") }
	c.Track(1)
	s.Run(time.Hour)
	if c.Deaths() != 0 {
		t.Errorf("deaths = %d, want 0", c.Deaths())
	}
}

func TestChurnerExponentialMean(t *testing.T) {
	s := New(99)
	c := NewChurner(s, time.Minute)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += c.Lifetime()
	}
	mean := sum / n
	if mean < 55*time.Second || mean > 65*time.Second {
		t.Errorf("empirical mean lifetime = %v, want ≈1m", mean)
	}
}

func BenchmarkEventLoop(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i), func() {})
	}
	s.RunAll()
}

// BenchmarkCallLoop is one answered RPC per iteration: request, handler,
// response, and the timeout cancelled. The deadline is far enough out that a
// queue which kept cancelled timeouts would be hundreds deep here.
func BenchmarkCallLoop(b *testing.B) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(1, func(_ Address, req Message) (Message, bool) { return req, true })
	answered := 0
	cb := func(Message, error) { answered++ }
	var req Message = testMsg{bytes: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Call(0, 1, req, time.Second, cb)
		s.Run(s.Now() + 2*time.Millisecond)
	}
	if answered != b.N {
		b.Fatalf("%d of %d calls answered", answered, b.N)
	}
}
