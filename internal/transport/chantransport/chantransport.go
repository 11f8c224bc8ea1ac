// Package chantransport is a concurrent in-process transport: one goroutine
// per host, unbounded channel-backed mailboxes, and a real wire round-trip —
// every Send and every RPC leg is serialized through the transport codec
// ([]byte on the "wire") and decoded on the receiving side.
//
// It is the concurrency counterpart to internal/simnet: where the simulator
// proves protocol logic under deterministic virtual time, chantransport
// proves the same logic (and the codecs) under true parallelism and real
// time. It honors the transport.Transport serialization contract with a
// per-host actor loop (internal/transport/actor): a host's handler, RPC
// callbacks, and timer callbacks all run on that host's goroutine, so
// protocol state stays lock-free.
//
// Unlike the simulator, messages cross host boundaries only as bytes; a
// message type without a registered codec cannot travel at all, which makes
// this transport the enforcement point for "everything that goes on the
// wire has a wire format".
package chantransport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/actor"
)

// Network is a set of concurrently running hosts wired by serialized
// in-process links.
type Network struct {
	hosts   []*actor.Host
	rng     *rand.Rand
	start   time.Time
	latency time.Duration
	wg      sync.WaitGroup

	dropped     atomic.Uint64
	codecErrors atomic.Uint64
}

var _ transport.Transport = (*Network)(nil)

// Option configures a Network.
type Option func(*Network)

// WithLatency adds a fixed one-way delivery delay to every message.
func WithLatency(d time.Duration) Option {
	return func(n *Network) { n.latency = d }
}

// New starts a network of n host slots. seed drives Rand(); concurrent
// schedules are inherently nondeterministic, but seeding keeps protocol
// randomness reproducible in aggregate. Call Close when done.
func New(n int, seed int64, opts ...Option) *Network {
	nw := &Network{
		hosts: make([]*actor.Host, n),
		rng:   actor.NewRand(seed),
		start: time.Now(),
	}
	for _, opt := range opts {
		opt(nw)
	}
	for i := range nw.hosts {
		nw.hosts[i] = actor.Start(&nw.wg)
	}
	return nw
}

// Close shuts every host loop and periodic timer down and waits for them
// to drain. Closing twice is a no-op.
func (n *Network) Close() {
	for _, h := range n.hosts {
		h.Close()
	}
	n.wg.Wait()
}

// Size returns the number of host slots.
func (n *Network) Size() int { return len(n.hosts) }

// Dropped reports messages dropped by dead hosts or handlers.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

// CodecErrors reports messages that could not be encoded or decoded. A
// nonzero value means some message type lacks a registered wire codec.
func (n *Network) CodecErrors() uint64 { return n.codecErrors.Load() }

// hostAt returns the host of addr, nil when addr is out of range.
func (n *Network) hostAt(addr transport.Addr) *actor.Host {
	if addr < 0 || int(addr) >= len(n.hosts) {
		return nil
	}
	return n.hosts[addr]
}

// Bind implements transport.Transport.
func (n *Network) Bind(addr transport.Addr, hd transport.Handler) { n.hostAt(addr).Bind(hd) }

// SetAlive implements transport.Transport.
func (n *Network) SetAlive(addr transport.Addr, alive bool) { n.hostAt(addr).SetAlive(alive) }

// Alive implements transport.Transport.
func (n *Network) Alive(addr transport.Addr) bool { return n.hostAt(addr).Alive() }

// Stats implements transport.Transport.
func (n *Network) Stats(addr transport.Addr) obs.Traffic { return n.hostAt(addr).Stats() }

// Now implements transport.Transport: wall time since the network started.
func (n *Network) Now() time.Duration { return time.Since(n.start) }

// Rand implements transport.Transport with a lock-guarded seeded source.
func (n *Network) Rand() *rand.Rand { return n.rng }

// After implements transport.Transport: fn runs on owner's loop.
func (n *Network) After(owner transport.Addr, delay time.Duration, fn func()) transport.Timer {
	return n.hostAt(owner).After(delay, fn)
}

// Every implements transport.Transport: fn runs on owner's loop once per
// period until stop is called.
func (n *Network) Every(owner transport.Addr, period time.Duration, fn func()) (stop func()) {
	return n.hostAt(owner).Every(period, fn)
}

// deliver moves an encoded frame to `to`, decodes it there, and invokes the
// handler on the receiver's loop. respond, when non-nil, receives the
// handler's answer (still on the receiver's loop). The frame buffer is
// pooled: the receiving closure releases it once the bytes are decoded (or
// dropped), so steady-state traffic recycles its buffers.
func (n *Network) deliver(from, to transport.Addr, frame *transport.Buf,
	respond func(resp transport.Message, ok bool)) {
	h := n.hostAt(to)
	// One closure serves both the direct and the delayed path: it is the
	// per-message allocation, so it is not duplicated per hop.
	receive := func() {
		hd, ok := h.Handler()
		if !ok {
			frame.Release()
			n.dropped.Add(1)
			return
		}
		msg, err := transport.Decode(frame.B)
		size := len(frame.B)
		frame.Release()
		if err != nil {
			n.codecErrors.Add(1)
			return
		}
		n.hostAt(from).AddSent(size)
		h.AddReceived(size)
		resp, handled := hd(from, msg)
		if respond != nil {
			respond(resp, handled)
		}
	}
	if n.latency > 0 {
		time.AfterFunc(n.latency, func() { h.Post(receive) })
		return
	}
	h.Post(receive)
}

// Send implements transport.Transport: one serialized, one-way delivery.
func (n *Network) Send(from, to transport.Addr, msg transport.Message) {
	if n.hostAt(to) == nil {
		return
	}
	frame, err := transport.EncodeBuf(msg)
	if err != nil {
		n.codecErrors.Add(1)
		return
	}
	n.deliver(from, to, frame, nil)
}

// Call implements transport.Transport. The request and the response each
// cross the "wire" as encoded frames; cb runs on the caller's loop.
func (n *Network) Call(from, to transport.Addr, req transport.Message,
	timeout time.Duration, cb func(transport.Message, error)) {
	caller := n.hostAt(from)
	if n.hostAt(to) == nil {
		caller.Post(func() { cb(nil, transport.ErrUnreachable) })
		return
	}
	frame, err := transport.EncodeBuf(req)
	if err != nil {
		n.codecErrors.Add(1)
		caller.Post(func() { cb(nil, transport.ErrUnreachable) })
		return
	}
	// done is only touched on the caller's loop, so it needs no lock.
	done := false
	timer := caller.After(timeout, func() {
		if done {
			return
		}
		done = true
		cb(nil, transport.ErrTimeout)
	})
	n.deliver(from, to, frame, func(resp transport.Message, handled bool) {
		if !handled {
			n.dropped.Add(1)
			return // caller will observe the timeout
		}
		respFrame, err := transport.EncodeBuf(resp)
		if err != nil {
			n.codecErrors.Add(1)
			return
		}
		back := func() {
			if done {
				respFrame.Release()
				return // timeout already fired
			}
			msg, err := transport.Decode(respFrame.B)
			size := len(respFrame.B)
			respFrame.Release()
			if err != nil {
				// A corrupt response is a lost message, not a fast
				// failure: leave the RPC outstanding so the caller
				// observes the real timeout, and keep the codec
				// counter as the visible symptom.
				n.codecErrors.Add(1)
				return
			}
			done = true
			timer.Cancel()
			n.hostAt(to).AddSent(size)
			caller.AddReceived(size)
			cb(msg, nil)
		}
		if n.latency > 0 {
			time.AfterFunc(n.latency, func() { caller.Post(back) })
			return
		}
		caller.Post(back)
	})
}

// CollectObs implements obs.Source: aggregate traffic across every host,
// safe to call from any goroutine while the network runs.
func (n *Network) CollectObs(s *obs.Snapshot) {
	obs.EmitTraffic(s, "chan", actor.SumStats(n.hosts))
}
