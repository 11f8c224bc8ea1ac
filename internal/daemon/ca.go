package daemon

import (
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// serveCA wires the CA's admission hooks to the transport's dynamic endpoint
// table and the announce broadcast. It runs only on the process that
// actually serves the CA, and installs the hooks from INSIDE the CA's
// serialization context: the CA handler is already reachable over TCP by
// the time this runs, so a plain field write from the daemon goroutine would
// race with a joiner's CertIssueReq.
func (d *daemon) serveCA(ca *core.CA) {
	tr := d.tr
	d.limiter = newAdmissionLimiter(time.Now)
	inContext(tr, d.caAddr, func() {
		ca.AdmitPolicy = func(_ transport.Addr, req core.CertIssueReq) bool { return d.limiter.admit(req.Endpoint) }
		ca.OnRetire = d.limiter.retire
		ca.AllocAddr = func(endpoint string) (transport.Addr, bool) { return d.limiter.alloc(endpoint, tr) }
		ca.Announce = func(m core.EndpointAnnounce) { d.broadcastFromCA(m.Endpoint, m) }
		ca.AnnounceRevocation = func(m core.RevocationAnnounce) { d.broadcastFromCA("", m) }
	})
	// Heal lost announces: endpoint announces are unacknowledged one-way
	// sends, so a process that missed one would otherwise never learn a
	// joiner's slot. Re-broadcasting is idempotent for receivers.
	tr.Every(d.caAddr, 30*time.Second, ca.ReAnnounce)
}

// broadcastFromCA sends one one-way copy of msg to the first node slot of
// every other process (one per distinct endpoint), skipping the endpoint
// `skip`.
func (d *daemon) broadcastFromCA(skip string, msg transport.Message) {
	notified := map[string]bool{d.tr.Self(): true, skip: true}
	for slot, ep := range d.tr.Endpoints() {
		if ep == "" || notified[ep] || transport.Addr(slot) == d.caAddr {
			continue
		}
		notified[ep] = true
		d.tr.Send(d.caAddr, transport.Addr(slot), msg)
	}
}

const (
	maxGrantsPerEndpoint = 8         // per endpoint string (honest-operator restart budget)
	maxGrantsGlobal      = 32        // across ALL endpoints — the endpoint string is
	grantWindow          = time.Hour // attacker-chosen, so only a global cap truly bounds growth
)

// admissionLimiter is the CA's online-admission policy: a per-endpoint and
// a ring-wide rate limit on issued identities, plus the free list of retired
// slots. It is a baseline resource bound, NOT Sybil resistance (which needs
// the external identity check the paper assumes of its CA, §3.2). A sliding
// window — rather than an absolute count — means an uncleanly crashed joiner
// regains admission once its old grants age out, while identity rotation
// from one endpoint stays throttled. All methods run in the CA's
// serialization context; the clock is injected so tests can age the window.
type admissionLimiter struct {
	now      func() time.Time
	endpoint map[string][]time.Time
	global   []time.Time
	free     []transport.Addr
}

func newAdmissionLimiter(now func() time.Time) *admissionLimiter {
	return &admissionLimiter{now: now, endpoint: make(map[string][]time.Time)}
}

// expire drops every grant that has aged out of the window, and with it the
// key of any endpoint left with none — the endpoint string is attacker-chosen,
// so dead keys must not accrete.
func (l *admissionLimiter) expire() {
	cutoff := l.now().Add(-grantWindow)
	live := func(ts []time.Time) []time.Time { // grants are appended in time order
		for len(ts) > 0 && !ts[0].After(cutoff) {
			ts = ts[1:]
		}
		return ts
	}
	l.global = live(l.global)
	for endpoint, ts := range l.endpoint {
		if ts = live(ts); len(ts) == 0 {
			delete(l.endpoint, endpoint)
		} else {
			l.endpoint[endpoint] = ts
		}
	}
}

// admit decides one admission request and, when it admits, charges it to
// the endpoint's window and to the global one.
func (l *admissionLimiter) admit(endpoint string) bool {
	if endpoint == "" {
		return false
	}
	l.expire()
	if len(l.global) >= maxGrantsGlobal || len(l.endpoint[endpoint]) >= maxGrantsPerEndpoint {
		return false
	}
	now := l.now()
	l.endpoint[endpoint] = append(l.endpoint[endpoint], now)
	l.global = append(l.global, now)
	return true
}

// retire releases one per-endpoint grant (the documented contract of
// CertRetireReq) and recycles the slot so join/leave cycling does not grow
// the endpoint tables. The GLOBAL cap is deliberately not released: it
// limits identity issuance per hour — identities are permanent state
// (directory keys, issuance records, rosters) whether or not their grants
// retire, so a join/retire loop must not mint them unboundedly.
func (l *admissionLimiter) retire(endpoint string, addr transport.Addr) {
	// Expire BEFORE dropping, or the drop could consume an already-expired
	// timestamp and release nothing.
	l.expire()
	if ts := l.endpoint[endpoint]; len(ts) > 1 {
		l.endpoint[endpoint] = ts[1:]
	} else {
		delete(l.endpoint, endpoint)
	}
	l.free = append(l.free, addr)
}

// alloc binds a slot to an admitted joiner's endpoint: the most recently
// retired slot when there is one, a new table entry otherwise.
func (l *admissionLimiter) alloc(endpoint string, table *nettransport.Transport) (transport.Addr, bool) {
	if endpoint == "" {
		return transport.NoAddr, false
	}
	if n := len(l.free); n > 0 {
		addr := l.free[n-1]
		l.free = l.free[:n-1]
		table.SetEndpoint(addr, endpoint)
		return addr, true
	}
	return table.AddEndpoint(endpoint), true
}
