package simnet

import (
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Address identifies a simulated host. Addresses are stable for the lifetime
// of a simulation even across node churn (a replacement node reuses the
// address slot of the node it replaces, mirroring an IP being reassigned).
// It aliases the transport-layer address type: the simulator is one
// transport.Transport implementation among others.
type Address = transport.Addr

// NoAddress is the zero-value sentinel for "no host".
const NoAddress = transport.NoAddr

// Message is any payload carried by the network. Size is used for bandwidth
// accounting and must return the serialized wire size in bytes.
type Message = transport.Message

// LatencyModel supplies one-way transmission delays between hosts.
type LatencyModel interface {
	// Base returns the deterministic one-way latency between two hosts.
	Base(a, b Address) time.Duration
	// Sample returns the latency for a single transmission: the base
	// latency plus random jitter.
	Sample(a, b Address, rng *rand.Rand) time.Duration
}

// ConstantLatency is a trivial LatencyModel for tests: every transmission
// takes exactly D.
type ConstantLatency struct{ D time.Duration }

var _ LatencyModel = ConstantLatency{}

// Base implements LatencyModel.
func (c ConstantLatency) Base(_, _ Address) time.Duration { return c.D }

// Sample implements LatencyModel.
func (c ConstantLatency) Sample(_, _ Address, _ *rand.Rand) time.Duration { return c.D }

// Handler processes an incoming request and returns a response. Returning
// ok == false means the request is silently dropped (used by selective-DoS
// adversaries and by dead nodes).
type Handler = transport.Handler

// ErrTimeout is reported to RPC callbacks when no response arrives in time.
var ErrTimeout = transport.ErrTimeout

// ErrUnreachable is reported when the destination address has never been
// bound to a host.
var ErrUnreachable = transport.ErrUnreachable

type host struct {
	handler Handler
	alive   bool
	stats   obs.Traffic
}

// Network delivers messages between hosts with model-driven latencies and
// accounts traffic per host.
//
// Like the simulator it runs on, a Network belongs to one goroutine: Call,
// Send and every handler and callback run on the goroutine that steps the
// simulator. Dropped and the obs readers are the exceptions, for tests that
// poll a running simulation.
type Network struct {
	sim    *Simulator
	lat    LatencyModel
	hosts  []host
	faults *Faults
	// dropped is incremented on the simulator goroutine but read by test
	// goroutines polling a running simulation, so it must be atomic.
	dropped atomic.Uint64
}

// Network implements transport.Transport: the simulator is the
// deterministic backend of the transport abstraction.
var _ transport.Transport = (*Network)(nil)

// NewNetwork creates a network of n address slots over the simulator.
func NewNetwork(sim *Simulator, lat LatencyModel, n int) *Network {
	return &Network{sim: sim, lat: lat, hosts: make([]host, n)}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Simulator { return n.sim }

// Now implements transport.Transport with the virtual clock.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// Rand implements transport.Transport with the simulation's seeded source.
func (n *Network) Rand() *rand.Rand { return n.sim.Rand() }

// After implements transport.Transport. The owner address is irrelevant
// here: the whole simulation runs on one goroutine, so every callback is
// trivially serialized.
func (n *Network) After(_ Address, delay time.Duration, fn func()) transport.Timer {
	return n.sim.After(delay, fn)
}

// Every implements transport.Transport (same single-goroutine argument).
func (n *Network) Every(_ Address, period time.Duration, fn func()) (stop func()) {
	return n.sim.Every(period, fn)
}

// Latency returns the network's latency model.
func (n *Network) Latency() LatencyModel { return n.lat }

// Size returns the number of address slots.
func (n *Network) Size() int { return len(n.hosts) }

// Bind installs the handler for addr and marks it alive.
func (n *Network) Bind(addr Address, h Handler) {
	if !n.valid(addr) {
		return
	}
	n.hosts[addr].handler = h
	n.hosts[addr].alive = true
}

// SetAlive toggles whether addr accepts traffic. Dead hosts drop every
// request, which surfaces to callers as RPC timeouts.
func (n *Network) SetAlive(addr Address, alive bool) {
	if !n.valid(addr) {
		return
	}
	n.hosts[addr].alive = alive
}

// Alive reports whether addr currently accepts traffic.
func (n *Network) Alive(addr Address) bool {
	return n.valid(addr) && n.hosts[addr].alive && n.hosts[addr].handler != nil
}

// Stats returns a copy of the traffic counters for addr.
func (n *Network) Stats(addr Address) obs.Traffic {
	if !n.valid(addr) {
		return obs.Traffic{}
	}
	return n.hosts[addr].stats
}

// Dropped reports how many messages were dropped: by dead hosts, by
// handlers, or by the fault layer (loss and partition cuts). Safe to call
// from any goroutine.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

func (n *Network) valid(addr Address) bool {
	return addr >= 0 && int(addr) < len(n.hosts)
}

func (n *Network) account(from, to Address, m Message) {
	sz := uint64(m.Size())
	if n.valid(from) {
		n.hosts[from].stats.BytesSent += sz
		n.hosts[from].stats.MsgsSent++
	}
	if n.valid(to) {
		n.hosts[to].stats.BytesReceived += sz
		n.hosts[to].stats.MsgsReceived++
	}
}

// transmit runs one direction of a delivery through the fault layer and the
// latency model: it reports whether the transmission survives and, if so,
// its one-way delay. A lost or cut transmission consumes no latency sample,
// and a fault-free Network performs exactly the pre-fault-layer RNG draws.
func (n *Network) transmit(from, to Address) (time.Duration, bool) {
	if n.faults != nil && !n.faults.deliver(from, to) {
		n.dropped.Add(1)
		return 0, false
	}
	delay := n.lat.Sample(from, to, n.sim.Rand())
	if n.faults != nil {
		delay += n.faults.jitter()
	}
	return delay, true
}

// send is one one-way message in flight.
type send struct {
	timer    Timer
	n        *Network
	from, to Address
	msg      Message
}

func (d *send) fire() {
	n := d.n
	h := n.hosts[d.to]
	if !h.alive || h.handler == nil {
		n.dropped.Add(1)
		return
	}
	n.account(d.from, d.to, d.msg)
	h.handler(d.from, d.msg)
}

// Send delivers a one-way message. The destination's handler runs after the
// sampled latency; its response, if any, is discarded.
func (n *Network) Send(from, to Address, msg Message) {
	if !n.valid(to) {
		return
	}
	delay, ok := n.transmit(from, to)
	if !ok {
		return
	}
	d := &send{n: n, from: from, to: to, msg: msg}
	n.sim.schedule(&d.timer, delay, d)
}

// call is one RPC in flight: a single record carrying both of its queue
// entries, the deadline and whichever leg (request, then response) is
// travelling. cb is nil once the caller has been answered either way.
type call struct {
	deadline, leg Timer
	n             *Network
	from, to      Address
	msg           Message // the request, then the response
	answered      bool    // msg is the response, on its way back
	cb            func(Message, error)
}

// callDeadline is the call's timeout event; the call itself is its leg event.
type callDeadline call

func (c *callDeadline) fire() {
	cb := c.cb
	c.cb = nil
	cb(nil, ErrTimeout)
}

func (c *call) fire() {
	if !c.answered {
		c.deliver()
		return
	}
	if c.cb == nil {
		return // timeout already fired
	}
	c.deadline.Cancel()
	c.n.account(c.to, c.from, c.msg)
	c.cb(c.msg, nil)
}

// deliver hands the request to its destination and sends the response on its
// way back.
func (c *call) deliver() {
	n := c.n
	h := n.hosts[c.to]
	if !h.alive || h.handler == nil {
		n.dropped.Add(1)
		return // caller will observe the timeout
	}
	n.account(c.from, c.to, c.msg)
	resp, ok := h.handler(c.from, c.msg)
	if !ok {
		n.dropped.Add(1)
		return
	}
	back, revOK := n.transmit(c.to, c.from)
	if !revOK {
		return // response lost in flight: caller observes the timeout
	}
	c.msg, c.answered = resp, true
	n.sim.schedule(&c.leg, back, c)
}

// Call performs a request/response RPC. Exactly one of the callback's
// invocations happens: with the response, or with ErrTimeout /
// ErrUnreachable. The callback runs at the virtual time the response (or
// timeout) occurs.
func (n *Network) Call(from, to Address, req Message, timeout time.Duration, cb func(Message, error)) {
	if !n.valid(to) {
		n.sim.After(0, func() { cb(nil, ErrUnreachable) })
		return
	}
	c := &call{n: n, from: from, to: to, msg: req, cb: cb}
	n.sim.schedule(&c.deadline, timeout, (*callDeadline)(c))
	delay, fwdOK := n.transmit(from, to)
	if !fwdOK {
		return // request lost in flight: caller observes the timeout
	}
	n.sim.schedule(&c.leg, delay, c)
}
