// Package actor is the per-host runtime of the concurrent transports
// (nettransport, and chantransport, bench's probe fixture): one goroutine
// per host runs the
// host's unbounded mailbox and its deadline heap of After and Every timers,
// beside the host's handler/liveness/traffic state and a lock-guarded seeded
// random source. Every callback addressed to a host runs on its loop, which
// is how both backends honor the transport.Transport serialization
// contract; the backends keep only their own links, codec round trips and
// RPC correlation. A waiting timer is a heap entry and nothing else: the
// loop parks on one reusable runtime timer set to the earliest deadline.
//
// Every Host method is safe on a nil *Host — the slot this process does not
// serve: posts are dropped, counters stay zero, and timers never run fn.
package actor

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// epoch anchors the hosts' deadlines, which are durations on the monotonic
// clock.
var epoch = time.Now()

// timer is one After or Every in its host's deadline heap; it implements
// transport.Timer.
type timer struct {
	h      *Host
	at     time.Duration // deadline, since epoch
	seq    uint64        // arming order: equal deadlines fire in it
	period time.Duration // positive for Every, which re-arms on each firing
	fn     func()
	pos    int // 1 + index in h.timers; 0 when not queued
}

// posted is the handle After returns for a plain post: cancelling it does
// nothing, and it is shared because Cancel never writes a hostless timer.
var posted = &timer{}

// timerHeap is a binary min-heap on (at, seq) for container/heap.
type timerHeap []*timer

func (th timerHeap) Len() int { return len(th) }
func (th timerHeap) Less(i, j int) bool {
	return th[i].at < th[j].at || (th[i].at == th[j].at && th[i].seq < th[j].seq)
}
func (th timerHeap) Swap(i, j int) {
	th[i], th[j] = th[j], th[i]
	th[i].pos, th[j].pos = i+1, j+1
}
func (th *timerHeap) Push(x any) {
	t := x.(*timer)
	*th, t.pos = append(*th, t), len(*th)+1
}
func (th *timerHeap) Pop() any {
	old := *th
	t := old[len(old)-1]
	old[len(old)-1], t.pos = nil, 0
	*th = old[:len(old)-1]
	return t
}

// Host is one actor: its loop runs every callback addressed to it.
type Host struct {
	qmu    sync.Mutex // guards posts, timers, seq, closed and parked
	posts  []func()   // the mailbox: unbounded, FIFO, taken whole by the loop
	timers timerHeap
	seq    uint64
	closed bool
	parked bool          // the loop waits for wake or alarm
	wake   chan struct{} // capacity 1: a post or an earlier deadline
	alarm  *time.Timer   // set to the earliest deadline while parked

	mu      sync.Mutex
	handler transport.Handler
	alive   bool
	stats   obs.Traffic
}

// Start creates a host and launches its loop, counted in wg. The loop
// exits once Close has run and everything posted before it has run.
func Start(wg *sync.WaitGroup) *Host {
	h := &Host{wake: make(chan struct{}, 1), alarm: time.NewTimer(time.Hour)}
	h.alarm.Stop()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var run []func()
		for ok := true; ok; {
			for i, fn := range run {
				run[i] = nil
				fn()
			}
			run, ok = h.next(run[:0])
		}
	}()
	return h
}

// next blocks for the host's next callbacks: the earliest timer whose
// deadline has passed, else every post queued, in posting order. The loop
// hands back the slice it ran for the mailbox to reuse. ok=false means the
// host is closed and its mailbox drained.
func (h *Host) next(spare []func()) (run []func(), ok bool) {
	h.qmu.Lock()
	defer h.qmu.Unlock()
	for {
		var wait time.Duration // 0: no timer queued
		if len(h.timers) > 0 {
			t := h.timers[0]
			now := time.Since(epoch)
			if wait = t.at - now; wait <= 0 {
				run = append(spare, t.fn)
				if t.period > 0 {
					if t.at += t.period; t.at <= now { // late: skip the periods overrun
						t.at += (now-t.at)/t.period*t.period + t.period
					}
					heap.Fix(&h.timers, 0)
				} else {
					heap.Pop(&h.timers)
					t.fn = nil
				}
				return run, true
			}
		}
		if len(h.posts) > 0 {
			run, h.posts = h.posts, spare
			return run, true
		}
		if h.closed {
			return nil, false
		}
		h.parked = true
		h.qmu.Unlock()
		if wait > 0 {
			h.alarm.Reset(wait)
			select {
			case <-h.wake:
			case <-h.alarm.C:
			}
			h.alarm.Stop()
		} else {
			<-h.wake
		}
		h.qmu.Lock()
		h.parked = false
	}
}

// wakeLoop rouses a parked loop; h.qmu must be held.
func (h *Host) wakeLoop() {
	if h.parked {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// Post queues fn on the host's loop; it reports false, and drops fn, on a
// nil or closed host.
func (h *Host) Post(fn func()) bool {
	if h == nil {
		return false
	}
	h.qmu.Lock()
	defer h.qmu.Unlock()
	if h.closed {
		return false
	}
	h.posts = append(h.posts, fn)
	h.wakeLoop()
	return true
}

// Close stops accepting posts and drops the host's timers, which then never
// run; the loop still runs what was posted before. Closing twice is a no-op.
func (h *Host) Close() {
	if h == nil {
		return
	}
	h.qmu.Lock()
	defer h.qmu.Unlock()
	for _, t := range h.timers {
		t.pos, t.fn = 0, nil
	}
	h.timers, h.closed = nil, true
	h.wakeLoop()
}

// After runs fn on the host's loop once delay has passed unless the
// returned timer is cancelled first. A delay of zero or less is a plain
// Post, which Cancel does not withdraw.
func (h *Host) After(delay time.Duration, fn func()) transport.Timer {
	if delay <= 0 {
		h.Post(fn)
		return posted
	}
	return h.arm(delay, 0, fn)
}

// Every runs fn on the host's loop once per period (a non-positive period
// counts as one millisecond) until stop is called or the host closes. A
// tick keeps its phase: one that runs late is followed by the next one due
// after it, and the periods it overran are skipped, never queued.
func (h *Host) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		period = time.Millisecond
	}
	return h.arm(period, period, fn).Cancel
}

// arm queues a timer delay from now; on a nil or closed host it never runs.
func (h *Host) arm(delay, period time.Duration, fn func()) *timer {
	t := &timer{h: h, period: period}
	if h == nil {
		return t
	}
	h.qmu.Lock()
	defer h.qmu.Unlock()
	if !h.closed {
		t.at, t.seq, t.fn = time.Since(epoch)+delay, h.seq, fn
		h.seq++
		if heap.Push(&h.timers, t); t.pos == 1 {
			h.wakeLoop() // a parked loop waits for a later deadline
		}
	}
	return t
}

// Cancel implements transport.Timer: the entry leaves the heap and lets go
// of fn at once.
func (t *timer) Cancel() {
	if t.h == nil {
		return
	}
	t.h.qmu.Lock()
	defer t.h.qmu.Unlock()
	if t.pos > 0 {
		heap.Remove(&t.h.timers, t.pos-1)
	}
	t.fn = nil
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
