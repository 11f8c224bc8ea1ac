// Package simnet is a deterministic discrete-event network simulator.
//
// It reproduces the role of the paper's 3.0 KLOC C++ event-based simulator
// (§5.1): a virtual clock, an event heap, seeded randomness, message delivery
// with per-pair WAN latencies, RPC timeouts, and node churn. Every run with
// the same seed and parameters is bit-for-bit reproducible.
//
// The simulator itself is single-goroutine by design: protocol handlers run
// inline when their events fire, so no synchronization is needed inside the
// protocols under test.
//
// The event queue is a 4-ary heap whose slots carry their (time, sequence)
// key by value, and a cancelled timer leaves it at once. Nearly every RPC is
// answered long before its deadline: a timeout left queued until then would
// pin the request, the callback and the whole lookup state behind it, and
// such entries would make up most of the queue's depth.
package simnet

import (
	"math/rand"
	"time"
)

// event is what a queue entry runs when its time comes.
type event interface{ fire() }

// funcEvent adapts a plain callback; func values are pointer-shaped, so the
// conversion to event does not allocate.
type funcEvent func()

func (f funcEvent) fire() { f() }

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is an unscheduled timer: the simulator's own records (an RPC, a
// periodic tick) embed theirs and re-arm it instead of allocating one per
// event.
type Timer struct {
	sim *Simulator
	ev  event
	pos int // 1 + index in sim.events; 0 when not queued
}

// Cancel prevents the event from firing: it leaves the queue and lets go of
// its callback. Cancelling an already-fired or already-cancelled timer is a
// no-op.
func (t *Timer) Cancel() {
	if t.pos == 0 {
		return
	}
	t.sim.remove(t.pos - 1)
	t.ev = nil
}

// slot is one queue entry. Simultaneous events fire in scheduling order
// (seq), which keeps runs deterministic; holding the key here means sifting
// compares slots without touching the timers they point to.
type slot struct {
	at  time.Duration
	seq uint64
	t   *Timer
}

func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now    time.Duration
	events []slot // 4-ary min-heap on (at, seq)
	rng    *rand.Rand
	seq    uint64
	fired  uint64
}

// New returns a simulator whose randomness derives entirely from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's random source. All protocol randomness must
// come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports how many events are queued. Cancelled timers are not
// among them: Cancel removes its entry.
func (s *Simulator) Pending() int { return len(s.events) }

// After schedules fn to run delay after the current virtual time and returns
// a cancellable handle. Negative delays are clamped to zero.
func (s *Simulator) After(delay time.Duration, fn func()) *Timer {
	t := &Timer{}
	s.schedule(t, delay, funcEvent(fn))
	return t
}

// schedule queues ev on t, which must not be queued already.
func (s *Simulator) schedule(t *Timer, delay time.Duration, ev event) {
	delay = max(delay, 0)
	t.sim, t.ev = s, ev
	s.events = append(s.events, slot{at: s.now + delay, seq: s.seq, t: t})
	s.seq++
	s.up(len(s.events) - 1)
}

// up moves the slot at i toward the root until its parent fires first.
func (s *Simulator) up(i int) {
	h := s.events
	sl := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !sl.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].t.pos = i + 1
		i = p
	}
	h[i] = sl
	sl.t.pos = i + 1
}

// down moves the slot at i toward the leaves until it fires before all of
// its (up to four) children.
func (s *Simulator) down(i int) {
	h := s.events
	sl := h[i]
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		m := first
		for c := first + 1; c < first+4 && c < len(h); c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(sl) {
			break
		}
		h[i] = h[m]
		h[i].t.pos = i + 1
		i = m
	}
	h[i] = sl
	sl.t.pos = i + 1
}

// remove takes the slot at i out of the queue and returns it.
func (s *Simulator) remove(i int) slot {
	h := s.events
	out, last := h[i], len(h)-1
	out.t.pos = 0
	moved := h[last]
	h[last] = slot{}
	s.events = h[:last]
	if i < last {
		h[i] = moved
		if i > 0 && moved.before(h[(i-1)/4]) {
			s.up(i)
		} else {
			s.down(i)
		}
	}
	return out
}

// ticker is one Every schedule: a single record whose timer is re-armed
// after each tick.
type ticker struct {
	timer   Timer
	period  time.Duration
	fn      func()
	stopped bool
}

func (k *ticker) fire() {
	if k.stopped {
		return
	}
	k.fn()
	if !k.stopped {
		k.timer.sim.schedule(&k.timer, k.period, k)
	}
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now. The returned stop function cancels future firings. A
// non-positive period is taken as 1 ms, as the concurrent backends do: re-armed
// at a delay of zero the ticker would fire forever without the clock moving.
func (s *Simulator) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		period = time.Millisecond
	}
	k := &ticker{period: period, fn: fn}
	s.schedule(&k.timer, period, k)
	// stop does not cancel the tick already queued; it fires as an empty
	// event, because Fired() is part of what seeded runs are compared on.
	return func() { k.stopped = true }
}

// Step executes the next pending event, advancing the clock to its firing
// time. It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	next := s.remove(0)
	ev := next.t.ev
	next.t.ev = nil // a kept handle must not pin the callback; records re-arm
	s.now = next.at
	s.fired++
	ev.fire()
	return true
}

// Run executes events until the queue is empty or the clock would pass
// `until`, and returns the number of events executed. Events scheduled at
// exactly `until` still fire.
func (s *Simulator) Run(until time.Duration) uint64 {
	start := s.fired
	for len(s.events) > 0 && s.events[0].at <= until {
		s.Step()
	}
	s.now = max(s.now, until)
	return s.fired - start
}

// RunAll drains the entire event queue.
func (s *Simulator) RunAll() uint64 {
	start := s.fired
	for s.Step() {
	}
	return s.fired - start
}
