package simnet

import (
	"testing"
	"time"
)

// freeCalls walks the call free list and returns its records; a record linked
// in twice makes a cycle, which the walk reports.
func freeCalls(t *testing.T, n *Network) []*call {
	t.Helper()
	seen := map[*call]bool{}
	var out []*call
	for c := n.freeCalls; c != nil; c = c.next {
		if seen[c] {
			t.Fatalf("call record %p is in the free list twice", c)
		}
		if c.deadline.pos != 0 || c.leg.pos != 0 || c.cb != nil || c.msg != nil {
			t.Fatalf("call record in the free list is still live: %+v", c)
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// seqMsg is a payload that tells one request or response from another.
type seqMsg struct{ seq int }

func (seqMsg) Size() int { return 8 }

// TestRecycledCallKeepsItsOwnResponse chains calls from inside callbacks —
// where the record that just answered is the first one the free list hands
// out — with a Send and a second Call riding along, and checks every callback
// against the request it was registered for.
func TestRecycledCallKeepsItsOwnResponse(t *testing.T) {
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
	// Chained call i+1 answers before side call i, so three are in flight
	// when the third record is needed, and never more.
	if got := len(freeCalls(t, n)); got != 3 {
		t.Errorf("%d call records after a chain that never had more than three in flight, want 3", got)
	}
}

// TestLateResponseFreesTheRecord: the deadline fires while the response is on
// its way back. The callback hears the timeout once, and the record is handed
// out again only after that leg has fired.
func TestLateResponseFreesTheRecord(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 10 * time.Millisecond}, 2)
	n.Bind(1, func(_ Address, req Message) (Message, bool) { return req, true })
	var errs []error
	n.Call(0, 1, seqMsg{seq: 1}, 15*time.Millisecond, func(_ Message, err error) { errs = append(errs, err) })
	s.Run(16 * time.Millisecond)
	if len(errs) != 1 || errs[0] != ErrTimeout {
		t.Fatalf("at 16 ms the caller heard %v, want one ErrTimeout", errs)
	}
	if free := freeCalls(t, n); len(free) != 0 {
		t.Fatalf("record freed with its response leg still queued")
	}
	// A call made meanwhile gets a record of its own and its own answer.
	var second Message
	n.Call(0, 1, seqMsg{seq: 2}, time.Second, func(m Message, _ error) { second = m })
	s.Run(21 * time.Millisecond)
	if len(errs) != 1 {
		t.Fatalf("late response reached the caller after its timeout: %v", errs)
	}
	if free := freeCalls(t, n); len(free) != 1 {
		t.Fatalf("%d records free once the late leg has fired, want 1", len(free))
	}
	s.RunAll()
	if second == nil || second.(seqMsg).seq != 2 {
		t.Errorf("second call answered with %v, want its own request echoed", second)
	}
	if free := freeCalls(t, n); len(free) != 2 {
		t.Errorf("%d records free at the end, want 2", len(free))
	}
}

// TestDroppedCallFreedOnce runs every way a call can die without an answer —
// request lost by the fault layer, dead host, handler drop, response lost,
// request still in flight at the deadline and then dropped — and checks the
// record enters the free list once, at the deadline or the last leg, whichever
// is later.
func TestDroppedCallFreedOnce(t *testing.T) {
	const lat, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	cases := []struct {
		name  string
		setup func(n *Network)
		// freeAt is when the record is expected back.
		freeAt time.Duration
	}{
		{"request lost in flight", func(n *Network) { n.InstallFaults().SetLinkLoss(0, 1, 1) }, timeout},
		{"dead host", func(n *Network) { n.SetAlive(1, false) }, timeout},
		{"handler drops", func(n *Network) {
			n.Bind(1, func(Address, Message) (Message, bool) { return nil, false })
		}, timeout},
		{"response lost in flight", func(n *Network) { n.InstallFaults().SetLinkLoss(1, 0, 1) }, timeout},
		{"request outlives the deadline, then dropped", func(n *Network) {
			n.lat = ConstantLatency{D: 2 * timeout}
			n.SetAlive(1, false)
		}, 2 * timeout},
		{"request and response both outlive the deadline", func(n *Network) {
			n.lat = ConstantLatency{D: 2 * timeout}
		}, 4 * timeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			n := NewNetwork(s, ConstantLatency{D: lat}, 2)
			n.Bind(1, func(_ Address, req Message) (Message, bool) { return req, true })
			c.setup(n)
			var errs []error
			n.Call(0, 1, seqMsg{seq: 1}, timeout, func(_ Message, err error) { errs = append(errs, err) })
			s.Run(c.freeAt - 1)
			if free := freeCalls(t, n); len(free) != 0 {
				t.Fatalf("record free at %v, before %v", s.Now(), c.freeAt)
			}
			s.RunAll()
			if len(errs) != 1 || errs[0] != ErrTimeout {
				t.Fatalf("caller heard %v, want one ErrTimeout", errs)
			}
			if free := freeCalls(t, n); len(free) != 1 {
				t.Fatalf("%d records free, want the one", len(free))
			}
			// Two calls at once must not be handed the same record.
			n.lat = ConstantLatency{D: lat}
			n.faults = nil
			n.Bind(1, func(_ Address, req Message) (Message, bool) { return req, true })
			got := [2]int{}
			for i := range got {
				n.Call(0, 1, seqMsg{seq: 10 + i}, timeout, func(m Message, err error) {
					if err == nil {
						got[i] = m.(seqMsg).seq
					}
				})
			}
			s.RunAll()
			if got != [2]int{10, 11} {
				t.Errorf("two calls after the drop were answered %v, want [10 11]", got)
			}
			if free := freeCalls(t, n); len(free) != 2 {
				t.Errorf("%d records free at the end, want 2", len(free))
			}
		})
	}
}

// TestSendRecordRecycled: a Send made from inside a handler reuses the record
// whose delivery is running, and a send to a dead host still returns its
// record.
func TestSendRecordRecycled(t *testing.T) {
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
	count := 0
	for d := n.freeSends; d != nil; d = d.next {
		if count++; count > 2 || d.msg != nil {
			t.Fatalf("send free list holds more than the two records ever in flight, or a live one")
		}
	}
	if len(got) != 101 || count != 2 || n.Dropped() != 1 {
		t.Errorf("%d deliveries, %d free send records, %d dropped; want 101, 2, 1", len(got), count, n.Dropped())
	}
}

// TestSteadyStateAllocatesNothing: once the free lists and the queue have
// grown to the working set, an answered Call and a delivered Send cost no
// allocation.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(1, func(_ Address, req Message) (Message, bool) { return req, true })
	answered := 0
	cb := func(Message, error) { answered++ }
	var req Message = testMsg{bytes: 64}
	call := func() {
		n.Call(0, 1, req, time.Second, cb)
		s.Run(s.Now() + 2*time.Millisecond)
	}
	send := func() {
		n.Send(0, 1, req)
		s.Run(s.Now() + time.Millisecond)
	}
	call()
	send()
	if a := testing.AllocsPerRun(200, call); a != 0 {
		t.Errorf("an answered Call allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(200, send); a != 0 {
		t.Errorf("a delivered Send allocates %v times, want 0", a)
	}
	if answered != 202 {
		t.Errorf("%d calls answered, want 202", answered)
	}
}
