// Package chantransport is the fixture of bench's in-process RPC probe
// (chantransport.rpc_rtt_us_p50) and nothing else: one actor loop per host
// (internal/transport/actor), and every Send and every RPC leg encoded
// through the transport codec and decoded on the receiving side.
//
// The concurrent in-process backend of the repository is a one-process
// nettransport, whose endpoint table names only itself: it runs the same
// actor loops and codec, and keeps the Close contract this package does not
// (a call in flight at Close gets no callback here). Delete this package
// once the probe retires; only bench may import it until then.
package chantransport

import (
	"math/rand"
	"sync"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/actor"
)

// Network is a set of concurrently running hosts wired by serialized
// in-process links.
type Network struct {
	hosts []*actor.Host
	rng   *rand.Rand
	start time.Time
	wg    sync.WaitGroup
}

var _ transport.Transport = (*Network)(nil)

// New starts a network of n host slots. seed drives Rand(). Call Close
// when done.
func New(n int, seed int64) *Network {
	nw := &Network{
		hosts: make([]*actor.Host, n),
		rng:   actor.NewRand(seed),
		start: time.Now(),
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
// handler's answer (still on the receiver's loop). The receiving closure
// releases the pooled frame buffer once the bytes are decoded or dropped.
func (n *Network) deliver(from, to transport.Addr, frame *transport.Buf,
	respond func(resp transport.Message, ok bool)) {
	h := n.hostAt(to)
	h.Post(func() {
		hd, ok := h.Handler()
		if !ok {
			frame.Release()
			return
		}
		msg, err := transport.Decode(frame.B)
		size := len(frame.B)
		frame.Release()
		if err != nil {
			return
		}
		n.hostAt(from).AddSent(size)
		h.AddReceived(size)
		resp, handled := hd(from, msg)
		if respond != nil {
			respond(resp, handled)
		}
	})
}

// Send implements transport.Transport: one serialized, one-way delivery.
func (n *Network) Send(from, to transport.Addr, msg transport.Message) {
	if n.hostAt(to) == nil {
		return
	}
	frame, err := transport.EncodeBuf(msg)
	if err != nil {
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
			return // caller will observe the timeout
		}
		respFrame, err := transport.EncodeBuf(resp)
		if err != nil {
			return
		}
		caller.Post(func() {
			if done {
				respFrame.Release()
				return // timeout already fired
			}
			msg, err := transport.Decode(respFrame.B)
			size := len(respFrame.B)
			respFrame.Release()
			if err != nil {
				// A corrupt response is a lost message, not a fast
				// failure: the caller observes the real timeout.
				return
			}
			done = true
			timer.Cancel()
			n.hostAt(to).AddSent(size)
			caller.AddReceived(size)
			cb(msg, nil)
		})
	})
}
