// Package nettransport is the socket-backed transport.Transport: protocol
// messages cross real TCP connections as length-prefixed frames around the
// binary wire codec. It is the concurrent end of the repository's fidelity
// ladder — internal/simnet proves protocol logic under deterministic virtual
// time; one nettransport serving every slot proves it under true
// parallelism with no socket; nettransport spread over processes runs the
// identical state machines between OS processes and machines (see
// docs/DEPLOYMENT.md).
//
// A Transport instance is one process's view of a deployment: an endpoint
// table mapping every address slot to a TCP "host:port", a listener serving
// the slots whose endpoint is this process's own (the local hosts), and
// dial-on-demand persistent connections to every other endpoint; frames for
// an endpoint that is not listening yet wait out the redial backoff. The
// per-host serialization contract is honored by internal/transport/actor —
// one actor loop per local host runs that host's handler, RPC callbacks, and
// timer callbacks — so protocol state stays lock-free no matter which
// backend it runs on.
//
// RPCs are correlated by a request id carried in the frame header, drawn
// at random per call so that a party off the path cannot guess a pending
// one; a response's `from` is still the writer's own claim. Requests that
// are lost (dead host, selective-DoS handler, connection loss) surface to
// the caller as transport.ErrTimeout after the caller's deadline, matching
// the other backends: on a real network, silence is the only honest
// failure signal. A request the transport knows never left (its dial
// failed, its queue was full) fails with ErrTimeout at once.
//
// Traffic accounting follows the conformance contract: exactly
// Message.Size() bytes — the codec frame, which is what the experiments
// model — are accounted per delivered message. For hosts in other processes
// delivery cannot be observed, so a sender accounts a remote-bound message
// when it hands the frame to the connection writer. A frame between two of a
// process's own slots skips the socket, but is decoded, delivered and
// accounted like one that crossed it; Frames() counts both kinds.
package nettransport

import (
	"bufio"
	"cmp"
	crand "crypto/rand"
	"fmt"
	"io"
	"math/rand"
	randv2 "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/actor"
)

// Config describes one process's slice of a deployment.
type Config struct {
	// Endpoints maps every address slot to a TCP endpoint "host:port".
	// Slots whose endpoint equals Self are served by this process.
	Endpoints []string
	// Listen is the TCP address to listen on. Ignored when Listener is
	// set; when both are empty, New binds 127.0.0.1:0, so a transport
	// nothing needs to dial exposes no port beyond loopback.
	Listen string
	// Listener, when non-nil, is a pre-bound listener to serve on (lets
	// tests grab a kernel-assigned port before building the table).
	Listener net.Listener
	// Self is the endpoint string identifying this process in Endpoints.
	// Defaults to Listen (or the Listener address when Listen is empty).
	Self string
	// Seed drives Rand(). Processes of one deployment must share it: the
	// bootstrap state (ring identifiers, key material) is derived
	// deterministically from this stream.
	Seed int64
	// RedialBackoff is the pause between dial attempts to one endpoint
	// after a failed dial (default 250ms). Frames queued meanwhile wait
	// for the next dial; they are dropped only if it fails too.
	RedialBackoff time.Duration
}

func (cfg *Config) fillDefaults() {
	if cfg.RedialBackoff == 0 {
		cfg.RedialBackoff = 250 * time.Millisecond
	}
}

// Link and writer bounds. Inbound frames are bounded by DefaultMaxFrame.
const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one frame write: a wedged peer costs one write
	// deadline, not a stuck writer goroutine.
	writeTimeout = 5 * time.Second
	// linkQueue is the per-endpoint outbound queue depth. A full queue drops
	// frames rather than blocking a host's actor loop.
	linkQueue = 1024
	// batchBytes caps how many frame bytes one writer flush coalesces.
	// Frames already waiting in a link's queue are gathered into a single
	// vectored write instead of one syscall each; the queue draining — not
	// the cap — is what normally ends a batch, so a lone frame is never
	// delayed.
	batchBytes = 64 << 10
)

// pendingCall is one outstanding RPC awaiting its response frame.
type pendingCall struct {
	from  transport.Addr
	to    transport.Addr
	cb    func(transport.Message, error)
	timer *time.Timer
}

// Transport implements transport.Transport over TCP.
type Transport struct {
	cfg  Config
	self string
	ln   net.Listener

	// The address table is dynamic since online membership: admitting a
	// joiner appends a slot (AddEndpoint on the CA's process) or installs
	// a learned mapping (SetEndpoint on everyone else). tableMu guards
	// both slices; nil host entries are remote slots.
	tableMu   sync.RWMutex
	endpoints []string
	hosts     []*actor.Host

	bootstrapMu sync.RWMutex
	bootstrap   func(remote string, req transport.Message) (transport.Message, bool)

	mu      sync.Mutex
	links   map[string]*link
	pending map[uint64]*pendingCall
	conns   map[net.Conn]struct{} // accepted connections, for Close
	// reqIDs draws request ids under mu. It is keyed from crypto/rand,
	// never from cfg.Seed, which every process of a deployment shares.
	reqIDs *randv2.ChaCha8

	rng    *rand.Rand
	start  time.Time
	wg     sync.WaitGroup
	done   chan struct{}
	closed atomic.Bool

	dropped     atomic.Uint64
	codecErrors atomic.Uint64
	protoErrors atomic.Uint64
	sendDrops   atomic.Uint64
	dials       atomic.Uint64
	framesIn    atomic.Uint64
	framesOut   atomic.Uint64
}

var _ transport.Transport = (*Transport)(nil)

// New starts one process's transport: it listens on the configured
// endpoint, launches an actor loop per local host slot, and is immediately
// ready to dial the table's other endpoints on demand. Call Close when done.
func New(cfg Config) (*Transport, error) {
	cfg.fillDefaults()
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("nettransport: empty endpoint table")
	}
	ln := cfg.Listener
	if ln == nil {
		addr := cmp.Or(cfg.Listen, "127.0.0.1:0")
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("nettransport: listen %s: %w", addr, err)
		}
	}
	self := cfg.Self
	if self == "" {
		self = cfg.Listen
	}
	if self == "" {
		self = ln.Addr().String()
	}
	var key [32]byte
	crand.Read(key[:]) // never fails since Go 1.24
	t := &Transport{
		cfg:       cfg,
		self:      self,
		ln:        ln,
		endpoints: append([]string(nil), cfg.Endpoints...),
		hosts:     make([]*actor.Host, len(cfg.Endpoints)),
		links:     make(map[string]*link),
		pending:   make(map[uint64]*pendingCall),
		conns:     make(map[net.Conn]struct{}),
		reqIDs:    randv2.NewChaCha8(key),
		rng:       actor.NewRand(cfg.Seed),
		start:     time.Now(),
		done:      make(chan struct{}),
	}
	local := 0
	for i, ep := range cfg.Endpoints {
		if ep != self {
			continue
		}
		local++
		t.hosts[i] = actor.Start(&t.wg)
	}
	if local == 0 {
		ln.Close()
		return nil, fmt.Errorf("nettransport: no endpoint in the table matches self %q", self)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Self returns the endpoint this process serves.
func (t *Transport) Self() string { return t.self }

// Addr returns the listener's concrete address (useful with ":0" listens).
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// Size returns the number of address slots in the endpoint table.
func (t *Transport) Size() int {
	t.tableMu.RLock()
	defer t.tableMu.RUnlock()
	return len(t.hosts)
}

// Local reports whether an address slot is served by this process.
func (t *Transport) Local(addr transport.Addr) bool { return t.hostAt(addr) != nil }

// Endpoint returns the TCP endpoint of an address slot ("" out of range or
// not yet learned).
func (t *Transport) Endpoint(addr transport.Addr) string {
	t.tableMu.RLock()
	defer t.tableMu.RUnlock()
	if addr < 0 || int(addr) >= len(t.endpoints) {
		return ""
	}
	return t.endpoints[addr]
}

// Endpoints returns a copy of the slot-indexed endpoint table.
func (t *Transport) Endpoints() []string {
	t.tableMu.RLock()
	defer t.tableMu.RUnlock()
	return append([]string(nil), t.endpoints...)
}

// SetEndpoint installs the endpoint of an address slot, growing the table
// as needed (membership announces teach a process about slots allocated
// elsewhere). Setting a slot to this process's own endpoint creates the
// local host actor, so a late-learned local slot still serves traffic.
func (t *Transport) SetEndpoint(addr transport.Addr, endpoint string) {
	if addr < 0 {
		return
	}
	t.tableMu.Lock()
	defer t.tableMu.Unlock()
	for int(addr) >= len(t.endpoints) {
		t.endpoints = append(t.endpoints, "")
		t.hosts = append(t.hosts, nil)
	}
	t.endpoints[addr] = endpoint
	// The closed check happens under tableMu so it orders against Close's
	// host snapshot: no actor goroutine can be created after Close ran.
	if endpoint == t.self && t.hosts[addr] == nil && !t.closed.Load() {
		t.hosts[addr] = actor.Start(&t.wg)
	}
}

// AddEndpoint appends a fresh address slot for the endpoint and returns it
// (the CA's address allocator on the admission path).
func (t *Transport) AddEndpoint(endpoint string) transport.Addr {
	t.tableMu.Lock()
	defer t.tableMu.Unlock()
	addr := transport.Addr(len(t.endpoints))
	t.endpoints = append(t.endpoints, endpoint)
	var h *actor.Host
	if endpoint == t.self && !t.closed.Load() {
		h = actor.Start(&t.wg)
	}
	t.hosts = append(t.hosts, h)
	return addr
}

// SetBootstrapHandler installs the handler for bootstrap requests: frames
// addressed to NoAddr from processes that hold no slot yet (an octopusd
// -join admission, or a 0x05xx lookup client). The response is written
// back on the inbound connection — the only frame path that does so —
// because a slotless caller has no endpoint-table entry to dial. remote is
// the connection's remote address ("ip:port"), for per-client accounting.
// The handler runs on the connection's read goroutine; blocking it
// serializes that one connection's requests without affecting others, but
// it must not block indefinitely.
func (t *Transport) SetBootstrapHandler(h func(remote string, req transport.Message) (transport.Message, bool)) {
	t.bootstrapMu.Lock()
	t.bootstrap = h
	t.bootstrapMu.Unlock()
}

// Dropped reports messages dropped at delivery (dead host, no handler).
func (t *Transport) Dropped() uint64 { return t.dropped.Load() }

// CodecErrors reports messages that could not be encoded or decoded.
func (t *Transport) CodecErrors() uint64 { return t.codecErrors.Load() }

// ProtocolErrors reports malformed frames and misaddressed traffic.
func (t *Transport) ProtocolErrors() uint64 { return t.protoErrors.Load() }

// SendDrops reports frames dropped before reaching the wire: an unknown
// endpoint, a full queue, or a failed dial or write made after queueing.
func (t *Transport) SendDrops() uint64 { return t.sendDrops.Load() }

// Dials reports completed outbound connection attempts; values above the
// peer count indicate reconnects.
func (t *Transport) Dials() uint64 { return t.dials.Load() }

// Frames reports frames taken in and handed out, including those between
// two of this process's own slots, which skip the socket.
func (t *Transport) Frames() (in, out uint64) {
	return t.framesIn.Load(), t.framesOut.Load()
}

// Close shuts down the listener, all connections, all host loops, and all
// outstanding RPC timers, and waits for every goroutine to drain. RPCs
// still in flight fail fast with transport.ErrClosed: their callbacks are
// posted to the host mailboxes before those mailboxes close (a closed
// mailbox still drains what was already queued), so no caller is left
// waiting on an answer that can never arrive and no pending entry leaks.
// A Call made after Close gets no callback at all: see Call.
func (t *Transport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	close(t.done)
	t.ln.Close()
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	for id, pc := range t.pending {
		t.finish(id, pc, nil, transport.ErrClosed, 0)
	}
	t.mu.Unlock()
	// The snapshot orders against a concurrent SetEndpoint/AddEndpoint:
	// either its host is in the snapshot and gets closed, or it observes
	// closed and creates no host.
	for _, h := range t.localHosts() {
		h.Close()
	}
	t.wg.Wait()
}

func (t *Transport) inTable(addr transport.Addr) bool {
	t.tableMu.RLock()
	defer t.tableMu.RUnlock()
	return addr >= 0 && int(addr) < len(t.hosts)
}

// hostAt returns the local host of addr; nil for a remote or invalid slot.
func (t *Transport) hostAt(addr transport.Addr) *actor.Host {
	t.tableMu.RLock()
	defer t.tableMu.RUnlock()
	if addr < 0 || int(addr) >= len(t.hosts) {
		return nil
	}
	return t.hosts[addr]
}

// localHosts snapshots the host table under tableMu (remote slots are nil).
func (t *Transport) localHosts() []*actor.Host {
	t.tableMu.RLock()
	defer t.tableMu.RUnlock()
	return append([]*actor.Host(nil), t.hosts...)
}

// Bind implements transport.Transport. Binding a remote slot is a no-op:
// that host lives in another process.
func (t *Transport) Bind(addr transport.Addr, hd transport.Handler) { t.hostAt(addr).Bind(hd) }

// SetAlive implements transport.Transport (local hosts only; a process
// cannot toggle liveness of a host it does not run).
func (t *Transport) SetAlive(addr transport.Addr, alive bool) { t.hostAt(addr).SetAlive(alive) }

// Alive implements transport.Transport. Remote hosts are presumed alive —
// on a real network liveness is only discoverable by talking to them, and
// the protocol layers already treat RPC timeouts as the failure signal.
func (t *Transport) Alive(addr transport.Addr) bool {
	// One critical section for bounds check + slot read: the table grows
	// at runtime (SetEndpoint/AddEndpoint), so a re-check outside the
	// lock would race with append's reallocation.
	t.tableMu.RLock()
	inRange := addr >= 0 && int(addr) < len(t.hosts)
	var h *actor.Host
	if inRange {
		h = t.hosts[addr]
	}
	t.tableMu.RUnlock()
	return inRange && (h == nil || h.Alive())
}

// Stats implements transport.Transport. Only local hosts accumulate
// counters; remote slots report zeros.
func (t *Transport) Stats(addr transport.Addr) obs.Traffic { return t.hostAt(addr).Stats() }

// Now implements transport.Transport: wall time since the transport
// started.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// Rand implements transport.Transport with a lock-guarded seeded source.
func (t *Transport) Rand() *rand.Rand { return t.rng }

// After implements transport.Transport: fn runs on owner's actor loop; a
// remote owner's timer never fires.
func (t *Transport) After(owner transport.Addr, delay time.Duration, fn func()) transport.Timer {
	return t.hostAt(owner).After(delay, fn)
}

// Every implements transport.Transport: fn runs on owner's actor loop once
// per period until stop is called (or the transport closes).
func (t *Transport) Every(owner transport.Addr, period time.Duration, fn func()) (stop func()) {
	return t.hostAt(owner).Every(period, fn)
}

// Send implements transport.Transport: one frame, no response expected.
func (t *Transport) Send(from, to transport.Addr, msg transport.Message) {
	if t.inTable(to) {
		t.enqueue(frameOneway, from, to, 0, msg)
	}
}

// Call implements transport.Transport. The request id in the frame header
// correlates the response; exactly one of {response, ErrTimeout,
// ErrUnreachable, ErrClosed} reaches cb, on the caller's actor loop. A call
// that finds the transport closed registers nothing and posts ErrClosed,
// which the loop runs unless Close has already shut it; once it has, as
// for every call made after Close returns, cb never runs.
func (t *Transport) Call(from, to transport.Addr, req transport.Message,
	timeout time.Duration, cb func(transport.Message, error)) {
	if t.closed.Load() {
		// Fail fast without registering: a pending entry created here
		// would never be drained by Close (it already ran).
		t.hostAt(from).Post(func() { cb(nil, transport.ErrClosed) })
		return
	}
	if !t.inTable(to) {
		t.hostAt(from).Post(func() { cb(nil, transport.ErrUnreachable) })
		return
	}
	pc := &pendingCall{from: from, to: to, cb: cb}
	// Draw, register and arm atomically: the id must be unique among
	// pending calls, a timer fired against an unregistered entry would
	// leave the call pending forever, and an entry without a timer would
	// break Close and the response path. The timer callback itself
	// serializes on the same mutex via settle.
	t.mu.Lock()
	if t.closed.Load() {
		// Close has run (or is running) its pending drain; an entry
		// inserted now would leak until its timer fired.
		t.mu.Unlock()
		t.hostAt(from).Post(func() { cb(nil, transport.ErrClosed) })
		return
	}
	id := t.newReqID()
	t.pending[id] = pc
	pc.timer = time.AfterFunc(timeout, func() { t.settle(id, nil, nil, transport.ErrTimeout, 0) })
	t.mu.Unlock()
	t.enqueue(frameRequest, from, to, id, req)
}

// newReqID draws the id of a new call; t.mu must be held. A party that
// sees none of this transport's frames cannot guess a pending id, and one
// that sees some learns nothing about the others. Zero is the one-way id.
func (t *Transport) newReqID() uint64 {
	for {
		if id := t.reqIDs.Uint64(); id != 0 && t.pending[id] == nil {
			return id
		}
	}
}

// settle ends the pending call for id with (msg, err). Taking the entry is
// the race arbiter between the response, timeout and drop paths: whichever
// takes it delivers the single callback. A non-nil `from` additionally
// requires the response to originate from the address the request
// targeted; on mismatch the entry is left in place (the frame is spoofed or
// corrupt, and the real response or timeout is still owed).
func (t *Transport) settle(id uint64, from *transport.Addr, msg transport.Message, err error, size int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pc := t.pending[id]; pc != nil && (from == nil || *from == pc.to) {
		t.finish(id, pc, msg, err, size)
	}
}

// finish removes a pending call and posts its callback, which accounts a
// response's size bytes; t.mu must be held. Every path posts under t.mu, and
// Close drains pending under it before it shuts any mailbox: so a call is
// either posted to a mailbox still open or left to that drain. A post made
// after the unlock could land in a mailbox Close had shut meanwhile, and the
// callback would be lost.
func (t *Transport) finish(id uint64, pc *pendingCall, msg transport.Message, err error, size int) {
	delete(t.pending, id)
	pc.timer.Stop()
	t.hostAt(pc.from).Post(func() {
		if err == nil {
			t.hostAt(pc.to).AddSent(size)
			t.hostAt(pc.from).AddReceived(size)
		}
		pc.cb(msg, err)
	})
}

// enqueue frames msg and hands it on: to dispatch, minus its length prefix,
// for one of this process's own slots (accounted at delivery, where the
// destination's liveness is known); to the endpoint's link writer for any
// other (accounted to the local sender here, as delivery cannot be observed).
// A request that cannot be encoded fails with ErrUnreachable. Ownership of
// the frame passes on, or ends here on every drop path.
func (t *Transport) enqueue(kind uint8, from, to transport.Addr, reqID uint64, msg transport.Message) {
	fb, size, err := frameFor(kind, from, to, reqID, msg)
	if err != nil {
		t.codecErrors.Add(1)
		t.failRequest(kind, reqID, transport.ErrUnreachable)
		return
	}
	var l *link
	switch ep := t.Endpoint(to); {
	case ep == t.self && !t.closed.Load():
		t.framesOut.Add(1)
		if len(fb.B)-4 > DefaultMaxFrame { // the bound every reader enforces
			fb.Release()
			t.protoErrors.Add(1)
			return
		}
		fb.B = fb.B[4:]
		t.dispatch(frameHeader{kind, from, to, reqID}, fb)
		return
	case ep != "" && ep != t.self:
		l = t.linkTo(ep)
	}
	if l == nil { // closed, or an endpoint whose announce is still in flight
		fb.Release()
		t.dropRequest(kind, reqID)
		return
	}
	select {
	case l.ch <- fb:
		t.framesOut.Add(1)
		t.hostAt(from).AddSent(size)
	default:
		fb.Release()
		t.dropRequest(kind, reqID)
	}
}

// dropRequest accounts one outbound frame dropped before reaching the wire
// and, for request frames, fails the pending RPC immediately with
// ErrTimeout rather than leaving the caller to wait out its full deadline
// — the transport KNOWS the request never left, so the timeout is already
// certain. (Response and one-way drops have no local pending state; the
// remote caller observes its own timeout.)
func (t *Transport) dropRequest(kind uint8, reqID uint64) {
	t.sendDrops.Add(1)
	t.failRequest(kind, reqID, transport.ErrTimeout)
}

// failRequest fails the pending call of a request frame with err at once.
func (t *Transport) failRequest(kind uint8, reqID uint64, err error) {
	if kind == frameRequest {
		t.settle(reqID, nil, nil, err, 0)
	}
}

// dropFrame is dropRequest for an already-framed message (the link writer's
// failure paths); it recovers kind and reqID from the frame bytes, then
// releases the buffer.
func (t *Transport) dropFrame(fb *transport.Buf) {
	// The header follows frameFor's u32 length prefix.
	if len(fb.B) < 4+frameHeaderSize {
		fb.Release()
		t.sendDrops.Add(1)
		return
	}
	var h frameHeader
	r := transport.AcquireReader(fb.B[4:])
	h.code(r)
	r.Release()
	fb.Release()
	t.dropRequest(h.kind, h.reqID)
}

// dispatch routes one read or in-process frame, taking ownership of its buffer.
func (t *Transport) dispatch(h frameHeader, fb *transport.Buf) {
	t.framesIn.Add(1)
	switch h.kind {
	case frameRequest, frameOneway:
		t.dispatchRequest(h, fb)
	case frameResponse:
		t.dispatchResponse(h, fb)
	}
}

// dispatchRequest delivers a request or one-way frame to its local host's
// actor loop. Dead or unbound hosts drop silently (the caller observes a
// timeout), exactly like the in-process backends. The pooled frame buffer
// is recycled once the payload has been decoded (Decode copies), so the
// reader can refill it while the handler runs.
func (t *Transport) dispatchRequest(h frameHeader, fb *transport.Buf) {
	host := t.hostAt(h.to)
	if host == nil {
		fb.Release()
		t.protoErrors.Add(1) // misaddressed: this process does not serve h.to
		return
	}
	host.Post(func() {
		hd, ok := host.Handler()
		if !ok {
			fb.Release()
			t.dropped.Add(1)
			return
		}
		payload := fb.B[frameHeaderSize:]
		size := len(payload)
		msg, err := transport.Decode(payload)
		fb.Release()
		if err != nil {
			t.codecErrors.Add(1)
			return
		}
		t.hostAt(h.from).AddSent(size)
		host.AddReceived(size)
		resp, handled := hd(h.from, msg)
		if h.kind != frameRequest {
			return
		}
		if !handled {
			t.dropped.Add(1) // caller will observe its timeout
			return
		}
		if !t.inTable(h.from) {
			t.protoErrors.Add(1)
			return
		}
		t.enqueue(frameResponse, h.to, h.from, h.reqID, resp)
	})
}

// dispatchResponse correlates a response frame with its pending call and
// runs the callback on the caller's actor loop. The pooled frame buffer is
// recycled right after the decode, on the read goroutine.
func (t *Transport) dispatchResponse(h frameHeader, fb *transport.Buf) {
	payload := fb.B[frameHeaderSize:]
	size := len(payload)
	msg, err := transport.Decode(payload)
	fb.Release()
	if err != nil {
		// A corrupt response is a lost message, not a fast failure: the
		// pending entry stays so the caller observes the real timeout.
		t.codecErrors.Add(1)
		return
	}
	t.settle(h.reqID, &h.from, msg, nil, size) // a late, duplicate or misattributed one settles nothing
}

// acceptLoop serves inbound connections until Close.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// serveConn reads frames off one inbound connection until error or EOF. A
// malformed frame poisons the stream, so the connection is dropped; the
// peer's writer will redial.
func (t *Transport) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		h, fb, err := readFrameBuf(br, DefaultMaxFrame)
		if err != nil {
			if err != io.EOF && !t.closed.Load() {
				t.protoErrors.Add(1)
			}
			return
		}
		if h.kind == frameRequest && !h.to.Valid() {
			// A bootstrap request from a slotless process: answer on
			// this same connection (see SetBootstrapHandler).
			err := t.serveBootstrap(c, h, fb.B[frameHeaderSize:])
			fb.Release()
			if err != nil {
				return
			}
			continue
		}
		t.dispatch(h, fb)
	}
}

// serveBootstrap answers one bootstrap request frame inline on the inbound
// connection. A missing handler or an unanswerable request is silence —
// the caller observes its timeout, the same failure signal as everywhere
// else. The returned error poisons the connection (write failure).
func (t *Transport) serveBootstrap(c net.Conn, h frameHeader, payload []byte) error {
	t.bootstrapMu.RLock()
	handler := t.bootstrap
	t.bootstrapMu.RUnlock()
	if handler == nil {
		t.dropped.Add(1)
		return nil
	}
	t.framesIn.Add(1)
	req, err := transport.Decode(payload)
	if err != nil {
		t.codecErrors.Add(1)
		return nil
	}
	resp, ok := handler(c.RemoteAddr().String(), req)
	if !ok {
		t.dropped.Add(1)
		return nil
	}
	fb, _, err := frameFor(frameResponse, transport.NoAddr, transport.NoAddr, h.reqID, resp)
	if err != nil {
		t.codecErrors.Add(1)
		return nil
	}
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err = c.Write(fb.B)
	fb.Release()
	if err != nil {
		return err
	}
	t.framesOut.Add(1)
	return nil
}

// link is the outbound leg to one endpoint: a bounded frame queue drained
// by a writer goroutine that dials on demand, coalesces queued frames into
// vectored writes, and redials after failures.
type link struct {
	t        *Transport
	endpoint string
	ch       chan *transport.Buf
	batch    []*transport.Buf // gather scratch, reused across flushes
	bufs     net.Buffers      // writev scratch, reused across flushes
}

func (t *Transport) linkTo(endpoint string) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.links[endpoint]
	if !ok {
		if t.closed.Load() {
			return nil // shutting down: no new writer goroutines
		}
		l = &link{t: t, endpoint: endpoint, ch: make(chan *transport.Buf, linkQueue)}
		t.links[endpoint] = l
		t.wg.Add(1)
		go l.run()
	}
	return l
}

func (l *link) dial() net.Conn {
	c, err := net.DialTimeout("tcp", l.endpoint, dialTimeout)
	if err != nil {
		return nil
	}
	l.t.dials.Add(1)
	return c
}

// gather collects the current batch: the first (blocking-received) frame
// plus whatever else is already queued, up to batchBytes.
func (l *link) gather(first *transport.Buf) []*transport.Buf {
	batch := append(l.batch[:0], first)
	total := len(first.B)
drain:
	for total < batchBytes {
		select {
		case fb := <-l.ch:
			batch = append(batch, fb)
			total += len(fb.B)
		default:
			break drain
		}
	}
	l.batch = batch
	return batch
}

// writeBatch flushes the batch as one vectored write (one frame skips the
// indirection). net.Buffers consumes the slice-of-slices, not the frames, so
// a retry after redial can rebuild it from the same batch.
func (l *link) writeBatch(conn net.Conn, batch []*transport.Buf) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if len(batch) == 1 {
		_, err := conn.Write(batch[0].B)
		return err
	}
	bufs := l.bufs[:0]
	for _, fb := range batch {
		bufs = append(bufs, fb.B)
	}
	l.bufs = bufs
	_, err := bufs.WriteTo(conn)
	return err
}

// dropBatch fails every frame of a batch (dead peer path).
func (l *link) dropBatch(batch []*transport.Buf) {
	for _, fb := range batch {
		l.t.dropFrame(fb)
	}
}

// releaseBatch recycles the frame buffers after a successful flush.
func (l *link) releaseBatch(batch []*transport.Buf) {
	for i, fb := range batch {
		fb.Release()
		batch[i] = nil
	}
}

// run drains the queue. Connection policy: dial on the first frame; after a
// failed dial, hold the next batch until RedialBackoff has passed, then dial
// (a dead peer costs one dial per backoff, a peer that starts late loses
// nothing); on a write error, redial at once and retry the whole batch — a
// restarted peer leaves a stale connection whose first write fails. A batch
// is dropped only when the dial, or the write, made after it was queued fails.
func (l *link) run() {
	defer l.t.wg.Done()
	var conn net.Conn
	var lastFail time.Time
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var batch []*transport.Buf
		select {
		case <-l.t.done:
			return
		case first := <-l.ch:
			batch = l.gather(first)
		}
		if conn == nil {
			if wait := time.Until(lastFail.Add(l.t.cfg.RedialBackoff)); wait > 0 {
				select {
				case <-l.t.done: // Close fails the pending calls
					l.releaseBatch(batch)
					return
				case <-time.After(wait):
				}
			}
			conn = l.dial()
		}
		if conn != nil && l.writeBatch(conn, batch) != nil {
			conn.Close()
			if conn = l.dial(); conn != nil && l.writeBatch(conn, batch) != nil {
				conn.Close()
				conn = nil
			}
		}
		if conn == nil {
			lastFail = time.Now()
			l.dropBatch(batch)
			continue
		}
		l.releaseBatch(batch)
	}
}
