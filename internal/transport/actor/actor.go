// Package actor is the per-host runtime the two concurrent transports
// (chantransport and nettransport) share: an unbounded mailbox drained by
// one goroutine per host, the host's handler/liveness/traffic state, wall
// clock timers that fire on the host's loop, and a lock-guarded seeded
// random source. Every callback addressed to a host runs on its loop, which
// is how both backends honor the transport.Transport serialization
// contract; the backends keep only their own links, codec round trips and
// RPC correlation.
//
// Every Host method is safe on a nil *Host — the slot this process does not
// serve: posts are dropped, counters stay zero, and timers never run fn.
package actor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// mailbox is an unbounded FIFO of closures with blocking take. The queue is
// a ring: a steady-state actor loop recycles its slots instead of forcing an
// append reallocation every time the tail catches the slice capacity.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	q      []func()
	head   int
	n      int
	closed bool
}

// put enqueues fn; it reports false after close.
func (m *mailbox) put(fn func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.n == len(m.q) {
		grown := make([]func(), max(2*len(m.q), 16))
		for i := 0; i < m.n; i++ {
			grown[i] = m.q[(m.head+i)%len(m.q)]
		}
		m.q = grown
		m.head = 0
	}
	m.q[(m.head+m.n)%len(m.q)] = fn
	m.n++
	m.cond.Signal()
	return true
}

// take blocks for the next closure; ok=false means the mailbox is closed
// and drained.
func (m *mailbox) take() (func(), bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.n == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.n == 0 {
		return nil, false
	}
	fn := m.q[m.head]
	m.q[m.head] = nil
	m.head = (m.head + 1) % len(m.q)
	m.n--
	return fn, true
}

// Host is one actor: its loop runs every callback addressed to it.
type Host struct {
	box  mailbox
	done chan struct{} // closed by Close; ends the host's tickers

	mu      sync.Mutex
	handler transport.Handler
	alive   bool
	stats   obs.Traffic
}

// Start creates a host and launches its loop, counted in wg. The loop
// exits once Close has run and everything posted before it has run.
func Start(wg *sync.WaitGroup) *Host {
	h := &Host{done: make(chan struct{})}
	h.box.cond.L = &h.box.mu
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			fn, ok := h.box.take()
			if !ok {
				return
			}
			fn()
		}
	}()
	return h
}

// Post queues fn on the host's loop; it reports false, and drops fn, on a
// nil or closed host.
func (h *Host) Post(fn func()) bool {
	return h != nil && h.box.put(fn)
}

// Close stops accepting posts and ends the host's tickers; the loop still
// runs what was queued before. Closing twice is a no-op.
func (h *Host) Close() {
	if h == nil {
		return
	}
	m := &h.box
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(h.done)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// Bind installs the handler and marks the host alive.
func (h *Host) Bind(hd transport.Handler) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.handler, h.alive = hd, true
	h.mu.Unlock()
}

// SetAlive toggles whether the host accepts traffic.
func (h *Host) SetAlive(alive bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.alive = alive
	h.mu.Unlock()
}

// Handler returns the bound handler; ok is false when the host is dead,
// unbound, or nil.
func (h *Host) Handler() (hd transport.Handler, ok bool) {
	if h == nil {
		return nil, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handler, h.alive && h.handler != nil
}

// Alive reports whether the host accepts traffic.
func (h *Host) Alive() bool {
	_, ok := h.Handler()
	return ok
}

// Stats returns a copy of the host's traffic counters.
func (h *Host) Stats() obs.Traffic {
	if h == nil {
		return obs.Traffic{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// AddSent accounts one message of the given codec size sent by the host.
func (h *Host) AddSent(bytes int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.stats.BytesSent += uint64(bytes)
	h.stats.MsgsSent++
	h.mu.Unlock()
}

// AddReceived accounts one message of the given codec size received by the
// host.
func (h *Host) AddReceived(bytes int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.stats.BytesReceived += uint64(bytes)
	h.stats.MsgsReceived++
	h.mu.Unlock()
}

// SumStats adds up the traffic counters of hosts; nil entries count zero.
func SumStats(hosts []*Host) obs.Traffic {
	var agg obs.Traffic
	for _, h := range hosts {
		st := h.Stats()
		agg.BytesSent += st.BytesSent
		agg.BytesReceived += st.BytesReceived
		agg.MsgsSent += st.MsgsSent
		agg.MsgsReceived += st.MsgsReceived
	}
	return agg
}

// timer implements transport.Timer over a wall-clock timer plus a
// cancellation flag (the flag closes the race between Cancel and an
// already-queued firing).
type timer struct {
	cancelled atomic.Bool
	t         *time.Timer
}

// Cancel implements transport.Timer.
func (ct *timer) Cancel() {
	ct.cancelled.Store(true)
	if ct.t != nil {
		ct.t.Stop()
	}
}

// After runs fn on the host's loop once delay has passed (negative delays
// count as zero) unless the returned timer is cancelled first.
func (h *Host) After(delay time.Duration, fn func()) transport.Timer {
	ct := &timer{}
	if h == nil {
		return ct
	}
	ct.t = time.AfterFunc(max(delay, 0), func() {
		h.Post(func() {
			if ct.cancelled.Load() {
				return
			}
			fn()
		})
	})
	return ct
}

// Every runs fn on the host's loop once per period (a non-positive period
// counts as one millisecond) until stop is called or the host closes.
func (h *Host) Every(period time.Duration, fn func()) (stop func()) {
	if h == nil {
		return func() {}
	}
	if period <= 0 {
		period = time.Millisecond
	}
	stopCh := make(chan struct{})
	var once sync.Once
	var stopped atomic.Bool
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-h.done:
				return // closed without a prior stop: don't leak the ticker
			case <-tick.C:
				h.Post(func() {
					if stopped.Load() {
						return
					}
					fn()
				})
			}
		}
	}()
	return func() {
		once.Do(func() {
			stopped.Store(true)
			close(stopCh)
		})
	}
}

// lockedSource is a rand.Source64 safe for use from every host goroutine.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// NewRand returns a seeded *rand.Rand that every host goroutine may share.
func NewRand(seed int64) *rand.Rand {
	return rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)})
}
