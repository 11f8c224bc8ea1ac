// Package transport defines the network abstraction the Octopus stack runs
// over, together with the binary wire codec for protocol messages.
//
// The protocol layers (internal/chord, internal/core) are written in
// continuation-passing style against the Transport interface: one-way sends,
// request/response RPCs with timeouts, liveness toggles, per-host traffic
// accounting, and host-scoped timers. Three implementations ship with the
// repository:
//
//   - internal/simnet: the deterministic discrete-event simulator used by
//     every experiment. Single-goroutine, virtual time, seeded randomness;
//     runs with the same seed are bit-for-bit reproducible.
//   - internal/transport/chantransport: a concurrent in-process transport
//     with one goroutine per host and real channels, which serializes every
//     message through the wire codec on each send, so code that runs over
//     it performs real encode/decode round-trips under real concurrency.
//   - internal/transport/nettransport: the socket-backed transport that
//     octopusd deploys, carrying the same codec frames over TCP between
//     processes and machines.
//
// The Transport contract deliberately keeps protocol code free of locks: for
// a given host address, the transport invokes the bound Handler, RPC
// callbacks, and timer callbacks serially, never concurrently. The simulator
// satisfies this trivially (it is single-threaded); both concurrent backends
// satisfy it with the per-host actor loop of internal/transport/actor.
package transport

import (
	"errors"
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
)

// Addr identifies a host on a transport. Addresses are opaque to the
// protocol layers: they are allocated by the concrete transport and only
// compared, stored, and echoed back. The zero-based integer form keeps the
// simulator's address-slot model and lets a socket transport map values to
// endpoint tables.
type Addr int32

// NoAddr is the sentinel "no host" value.
const NoAddr Addr = -1

// Valid reports whether the address refers to a host (is not the sentinel).
func (a Addr) Valid() bool { return a != NoAddr }

// Message is any payload carried by a transport. Size must return the exact
// serialized wire size in bytes; for codec-registered messages it is derived
// from the actual encoding (see EncodedSize), and the codec tests enforce
// Size() == len(Encode(m)).
type Message interface {
	Size() int
}

// Handler processes an incoming request and returns a response. Returning
// ok == false means the request is silently dropped (used by selective-DoS
// adversaries and by dead nodes); the caller observes an RPC timeout.
type Handler func(from Addr, req Message) (resp Message, ok bool)

// Timer is a handle to a scheduled callback that can be cancelled.
// Cancelling an already-fired or already-cancelled timer is a no-op.
type Timer interface {
	Cancel()
}

// RPC and delivery errors shared by all transports.
var (
	// ErrTimeout is reported to RPC callbacks when no response arrives in
	// time.
	ErrTimeout = errors.New("transport: rpc timeout")
	// ErrUnreachable is reported when the destination address does not
	// exist on the transport (out of range; never allocated).
	ErrUnreachable = errors.New("transport: unreachable address")
	// ErrClosed is reported to RPC callbacks still in flight when their
	// transport shuts down: the answer can never arrive, so callers fail
	// fast instead of waiting out their timeout.
	ErrClosed = errors.New("transport: closed")
)

// Transport moves protocol messages between hosts.
//
// Serialization contract: for any single address, the transport never runs
// two of {bound Handler, RPC callback, After/Every callback} concurrently.
// Protocol state owned by a host may therefore be mutated without locks from
// those callbacks. Code outside any host callback (e.g. a test's main
// goroutine) must enter a host's context via After(owner, 0, fn) before
// touching its state.
type Transport interface {
	// Bind installs the handler for addr and marks it alive.
	Bind(addr Addr, h Handler)
	// SetAlive toggles whether addr accepts traffic. Dead hosts drop every
	// request, which surfaces to callers as RPC timeouts.
	SetAlive(addr Addr, alive bool)
	// Alive reports whether addr currently accepts traffic.
	Alive(addr Addr) bool
	// Send delivers a one-way message. The destination handler's response,
	// if any, is discarded.
	Send(from, to Addr, msg Message)
	// Call performs a request/response RPC. Exactly one invocation of cb
	// happens: with the response, or with ErrTimeout / ErrUnreachable. The
	// callback runs in the serialization context of `from`.
	Call(from, to Addr, req Message, timeout time.Duration, cb func(Message, error))
	// Stats returns a copy of the traffic counters for addr. Byte counts
	// follow the wire codec: a transport accounts exactly Message.Size()
	// bytes per delivered message.
	Stats(addr Addr) obs.Traffic

	// Now returns the transport's clock: virtual time on the simulator,
	// wall time since start on real transports. It is monotone.
	Now() time.Duration
	// Rand returns the transport's random source. Protocol randomness must
	// come from here so simulated runs stay reproducible; concurrent
	// transports return a synchronized source.
	Rand() *rand.Rand
	// After schedules fn to run once, delay from now, in the serialization
	// context of owner. Negative delays are clamped to zero; After(owner,
	// 0, fn) is the idiom for entering a host's context.
	After(owner Addr, delay time.Duration, fn func()) Timer
	// Every schedules fn to run repeatedly with the given period, starting
	// one period from now, in the serialization context of owner. The
	// returned stop function cancels future firings.
	Every(owner Addr, period time.Duration, fn func()) (stop func())
}

// Await runs start inside addr's serialization context — the only legal way
// to touch protocol state from a goroutine outside the transport — and waits
// up to timeout of wall-clock time for it to hand a result to done. ok is
// false when the deadline passed first; a late done is then dropped.
func Await[T any](tr Transport, addr Addr, timeout time.Duration,
	start func(done func(T))) (v T, ok bool) {
	ch := make(chan T, 1)
	tr.After(addr, 0, func() { start(func(v T) { ch <- v }) })
	select {
	case v = <-ch:
		return v, true
	case <-time.After(timeout):
		return v, false
	}
}
