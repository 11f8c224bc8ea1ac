package main

import (
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// spanClass is where host time goes inside a simulated run, as seen from the
// transport boundary: which layer's handler ran, or which kind of
// continuation.
type spanClass int

const (
	classChordHandler spanClass = iota
	classCoreHandler
	classStoreHandler
	classCallback // an RPC completion (response or timeout)
	classTimer    // an After/Every firing
	numClasses
)

// selfClock attributes elapsed time to span classes by self time: a span's
// duration minus the part of it that nested spans cover. The simulator runs
// most callbacks from its event loop, one at a time, but a few protocol
// paths complete an RPC or fire a zero-delay timer inline, and without the
// subtraction that time would be counted twice.
type selfClock struct {
	now   func() time.Duration
	stack []clockFrame
	self  [numClasses]time.Duration
}

type clockFrame struct {
	class    spanClass
	start    time.Duration
	children time.Duration
}

func (c *selfClock) enter(class spanClass) {
	c.stack = append(c.stack, clockFrame{class: class, start: c.now()})
}

func (c *selfClock) exit() {
	top := len(c.stack) - 1
	f := c.stack[top]
	c.stack = c.stack[:top]
	d := c.now() - f.start
	c.self[f.class] += d - f.children
	if top > 0 {
		c.stack[top-1].children += d
	}
}

// total is the time covered by any span, nested time counted once.
func (c *selfClock) total() time.Duration {
	var sum time.Duration
	for _, d := range c.self {
		sum += d
	}
	return sum
}

// tracedNet decorates the simulator's network for the traced run: every
// bound handler, RPC callback and timer callback is timed into a selfClock,
// and delivered requests are counted by wire type. Everything else passes
// through, so the protocol sees the same transport and the simulated run is
// the same run.
type tracedNet struct {
	*simnet.Network
	clock selfClock

	chordMsgs, walkMsgs, relayMsgs uint64
}

var _ transport.Transport = (*tracedNet)(nil)

func newTracedNet(net *simnet.Network) *tracedNet {
	base := time.Now()
	return &tracedNet{Network: net, clock: selfClock{now: func() time.Duration { return time.Since(base) }}}
}

// isWalkTraffic tells a relay-selection walk's anonymous-path messages from
// every other use of the relay chain (lookup queries, dummies, store RPCs),
// by what the innermost layer carries: walks deliver a WalkSeedReq or fetch
// tables without successor lists, and get a WalkSeedResp or such a table
// back. Both directions travel as one-way RelayForward/RelayReply sends.
func isWalkTraffic(req transport.Message) (relayed, walk bool) {
	switch m := req.(type) {
	case core.RelayForward:
		inner := &m
		for inner.Inner != nil {
			inner = inner.Inner
		}
		if _, ok := inner.Local.(core.WalkSeedReq); ok {
			return true, true
		}
		if inner.Exit != nil {
			if g, ok := inner.Exit.Req.(chord.GetTableReq); ok {
				return true, !g.IncludeSuccessors
			}
		}
		return true, false
	case core.RelayReply:
		switch r := m.Resp.(type) {
		case core.WalkSeedResp:
			return true, true
		case chord.GetTableResp:
			return true, len(r.Table.Successors) == 0
		}
		return true, false
	}
	return false, false
}

// classify maps a request to the layer whose handler serves it, by the wire
// registry's block: 0x01xx is the routing layer, 0x06xx storage, and the
// rest (Octopus, membership, client, tier maintenance) belongs to core.
func (t *tracedNet) classify(req transport.Message) spanClass {
	w, ok := req.(transport.Wire)
	if !ok {
		return classCoreHandler
	}
	switch w.WireType() >> 8 {
	case 0x01:
		t.chordMsgs++
		return classChordHandler
	case 0x06:
		return classStoreHandler
	default:
		if relayed, walk := isWalkTraffic(req); walk {
			t.walkMsgs++
		} else if relayed {
			t.relayMsgs++
		}
		return classCoreHandler
	}
}

func (t *tracedNet) Bind(addr transport.Addr, h transport.Handler) {
	t.Network.Bind(addr, func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		t.clock.enter(t.classify(req))
		resp, ok := h(from, req)
		t.clock.exit()
		return resp, ok
	})
}

func (t *tracedNet) Call(from, to transport.Addr, req transport.Message, timeout time.Duration,
	cb func(transport.Message, error)) {
	t.Network.Call(from, to, req, timeout, func(m transport.Message, err error) {
		t.clock.enter(classCallback)
		cb(m, err)
		t.clock.exit()
	})
}

func (t *tracedNet) timed(fn func()) func() {
	return func() {
		t.clock.enter(classTimer)
		fn()
		t.clock.exit()
	}
}

func (t *tracedNet) After(owner transport.Addr, delay time.Duration, fn func()) transport.Timer {
	return t.Network.After(owner, delay, t.timed(fn))
}

func (t *tracedNet) Every(owner transport.Addr, period time.Duration, fn func()) (stop func()) {
	return t.Network.Every(owner, period, t.timed(fn))
}
