// Package daemon is the lifecycle of one octopusd process (see cmd/octopusd
// for the deployment view). A process comes to hold ring nodes either by
// deriving a static ring from a shared configuration (startStatic) or by
// being admitted to a live one through a contact (startJoined); everything
// after that start step is the same code for both, and everything Run starts
// is stopped when it returns.
package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/textproto"
	"strings"
	"sync"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// Options is octopusd's flag surface, one field per flag. Exactly one of
// Config and Join must be set.
type Options struct {
	Config string // ring configuration JSON (static deployment)
	Join   string // TCP endpoint of any live daemon (dynamic membership)
	Listen string // TCP endpoint this process serves
	IDName string // with Join: derive the ring identifier from this string

	// Cfg holds the protocol tuning; start from core.DefaultConfig().
	Cfg core.Config

	LookupKey  string
	ExpectID   string
	LookupWait time.Duration
	Once       bool
	WarmPairs  int
	WarmMax    time.Duration
	StatusEach time.Duration

	ServeLookups bool
	ServeWorkers int
	ServeQueue   int
	ServePer     int
	ServeTO      time.Duration

	ServeStore bool
	StoreSync  time.Duration

	MetricsListen string
	TraceBuffer   int
}

// daemon is one running process. The block from tr to leave is what a
// mode-specific start step (startStatic, startJoined) yields; the rest is
// built the same way for both.
type daemon struct {
	opts Options

	tr        *nettransport.Transport
	local     []*core.Node           // nodes this process serves (none when it hosts only the CA)
	gateway   *store.Store           // first local node's store, serving client Put/Get; nil when disabled
	caAddr    transport.Addr         // the CA's address slot
	bootstrap chord.Peer             // live member handed to the joiners this process admits
	truth     func(id.ID) chord.Peer // owner in the deterministic initial topology; nil in a joined ring
	leave     func() error           // graceful departure; nil for a static daemon
	limiter   *admissionLimiter      // nil unless this process hosts the CA

	// One collector that every component registers with (nodes, lookup
	// service, stores, the transport) and one span tracer shared by all
	// local nodes. The collector always exists — the status log line reads
	// from it — but HTTP serving and tracing are opt-in.
	collector *obs.Collector
	tracer    *obs.Tracer
	svc       *core.LookupService
	metrics   *responder
}

// Run brings the process up in the mode opts selects, serves until ctx is
// cancelled (or, with Once, until the lookup verifies), and shuts down: a
// joined daemon leaves the ring gracefully, a static one just closes its
// sockets. A failed lookup verification returns without leaving.
func Run(ctx context.Context, opts Options) error {
	d := &daemon{opts: opts, collector: obs.NewCollector()}
	defer d.stop()
	if err := d.start(ctx); err != nil {
		return err
	}
	if err := d.serve(ctx); err != nil || d.leave == nil {
		return err
	}
	return d.leave()
}

// start brings the process up: the mode-specific start step, then everything
// the two modes share.
func (d *daemon) start(ctx context.Context) error {
	opts := d.opts
	if opts.TraceBuffer > 0 {
		d.tracer = obs.NewTracer(opts.TraceBuffer, obs.RedactAnonymous)
		d.collector.Register(d.tracer)
	}

	startStep := d.startStatic
	if opts.Join != "" {
		startStep = d.startJoined
	}
	if err := startStep(ctx); err != nil {
		return err
	}

	d.collector.Register(d.tr)
	for _, node := range d.local {
		// From inside the node's context: the obs fields are read on its
		// hot paths, so a plain write from this goroutine would race.
		inContext(d.tr, node.Self().Addr, func() {
			node.AttachObs(d.collector)
			node.SetTracer(d.tracer)
		})
	}
	// The admission relay calls the CA from a slot this process serves.
	caller := d.caAddr
	if len(d.local) > 0 {
		caller = d.local[0].Self().Addr
		if opts.ServeLookups {
			d.svc = core.NewLookupService(d.local[0], core.ServiceConfig{
				Workers: opts.ServeWorkers, Queue: opts.ServeQueue, PerClient: opts.ServePer})
			d.svc.AttachObs(d.collector)
		}
	}
	// Every daemon, static or joined, serves future joiners as well as
	// client lookups and storage.
	d.tr.SetBootstrapHandler(bootstrapDispatcher(d.svc, d.gateway, opts.ServeTO,
		core.NewAdmissionRelay(d.tr, caller, d.caAddr, d.bootstrap, opts.Cfg.Chord.RPCTimeout)))
	if d.svc != nil {
		log.Printf("serving client lookups (α=%d, pool target %d, %d workers, queue %d)",
			opts.Cfg.LookupParallelism, opts.Cfg.PairPoolTarget, opts.ServeWorkers, opts.ServeQueue)
	}
	if d.gateway != nil {
		log.Printf("serving key-value storage (%d replicas, sync every %v)", opts.Cfg.StoreReplicas, opts.StoreSync)
	}
	return d.serveMetrics()
}

// stop releases whatever start got as far as acquiring.
func (d *daemon) stop() {
	if d.metrics != nil {
		d.metrics.stop()
	}
	if d.tr != nil {
		d.tr.Close()
	}
}

// listen opens the process's transport over the given endpoint table.
func (d *daemon) listen(endpoints []string, seed int64) (err error) {
	d.tr, err = nettransport.New(nettransport.Config{
		Listen:    d.opts.Listen,
		Self:      d.opts.Listen,
		Endpoints: endpoints,
		Seed:      seed,
	})
	return err
}

// coreConfig finalizes the flag-bound configuration for a ring of n nodes:
// the tuning flags already wrote their values into opts.Cfg; only the
// derived fields remain.
func (d *daemon) coreConfig(n int) core.Config {
	cfg := d.opts.Cfg
	cfg.EstimatedSize = n
	cfg.Chord.SuspectEvery = cfg.Chord.StabilizeEvery
	return cfg
}

// serveMetrics starts the observability listener, or does nothing when the
// flag is unset.
func (d *daemon) serveMetrics() error {
	if d.opts.MetricsListen == "" {
		return nil
	}
	ln, err := net.Listen("tcp", d.opts.MetricsListen)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	d.metrics = newResponder(ln, func(path string, body *bytes.Buffer) string {
		switch path {
		case "/metrics":
			_ = obs.WriteText(body, d.collector.Snapshot())
			return "text/plain; version=0.0.4; charset=utf-8"
		case "/trace":
			out := struct {
				Mode    string     `json:"mode"`
				Dropped uint64     `json:"dropped"`
				Spans   []obs.Span `json:"spans"`
			}{Mode: "anonymous", Dropped: d.tracer.Dropped(), Spans: d.tracer.Spans()}
			if out.Spans == nil {
				out.Spans = []obs.Span{}
			}
			_ = json.NewEncoder(body).Encode(out)
			return "application/json"
		}
		return ""
	})
	log.Printf("serving metrics on http://%s/metrics", ln.Addr())
	return nil
}

// responder is the -metrics-listen server: HTTP/1.1 GETs only, one request
// per connection, each on its own goroutine under one deadline and a bounded
// head, so a peer that stalls or sends an endless head holds a goroutine for
// at most exchangeTimeout. It stands in for net/http, which would link TLS,
// x509 and HTTP/2 into the daemon to answer two GETs.
type responder struct {
	ln    net.Listener
	page  func(path string, body *bytes.Buffer) (contentType string) // "" when nothing is served at path
	mu    sync.Mutex
	conns map[net.Conn]struct{} // open connections; nil once stop has begun
	wg    sync.WaitGroup        // the accept loop and every connection
}

const (
	exchangeTimeout = 5 * time.Second
	maxRequestLine  = 4 << 10
	maxRequestHead  = 8 << 10
)

func newResponder(ln net.Listener, page func(string, *bytes.Buffer) string) *responder {
	r := &responder{ln: ln, page: page, conns: map[net.Conn]struct{}{}}
	r.wg.Add(1)
	go r.accept()
	return r
}

func (r *responder) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil { // out of file descriptors, say: let open exchanges end
			time.Sleep(100 * time.Millisecond)
			continue
		}
		r.mu.Lock()
		if r.conns == nil {
			r.mu.Unlock()
			c.Close()
			return
		}
		r.conns[c] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.wg.Done()
			r.exchange(c)
			c.Close()
			r.mu.Lock()
			delete(r.conns, c)
			r.mu.Unlock()
		}()
	}
}

// exchange answers one request. A head that is malformed, cut short or over
// its bounds gets no response at all, and no response echoes the request.
func (r *responder) exchange(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(exchangeTimeout))
	head := textproto.NewReader(bufio.NewReader(io.LimitReader(c, maxRequestHead)))
	line, err := head.ReadLine()
	method, rest, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(rest, " ")
	if err != nil || len(line) > maxRequestLine || method == "" || !strings.HasPrefix(target, "/") || !strings.HasPrefix(proto, "HTTP/1.") {
		return
	}
	if _, err := head.ReadMIMEHeader(); err != nil {
		return
	}
	path, _, _ := strings.Cut(target, "?")
	var body bytes.Buffer
	status, ctype := "200 OK", ""
	if method != "GET" {
		status = "405 Method Not Allowed"
	} else if ctype = r.page(path, &body); ctype == "" {
		status = "404 Not Found"
	}
	if ctype == "" {
		ctype = "text/plain; charset=utf-8"
		body.WriteString(status + "\n")
	}
	_, _ = fmt.Fprintf(c, "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		status, ctype, body.Len(), body.Bytes())
}

// stop closes the listener and every open connection, and returns once
// their goroutines have exited.
func (r *responder) stop() {
	r.ln.Close()
	r.mu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.conns = nil
	r.mu.Unlock()
	r.wg.Wait()
}

// bootstrapDispatcher routes bootstrap-channel frames: ClientLookupReq to
// the lookup service, ClientPutReq/ClientGetReq to the gateway store (both
// blocking this client connection's read goroutine, which is exactly the
// per-client queue), everything else to the admission relay. A nil service
// or store drops its requests silently — the client observes a timeout,
// the transport's universal failure signal.
func bootstrapDispatcher(svc *core.LookupService, gw *store.Store, serveTO time.Duration,
	admission func(string, transport.Message) (transport.Message, bool)) func(string, transport.Message) (transport.Message, bool) {
	return func(remote string, req transport.Message) (transport.Message, bool) {
		switch m := req.(type) {
		case core.ClientLookupReq:
			if svc == nil {
				return nil, false
			}
			client := remote
			if host, _, err := net.SplitHostPort(remote); err == nil {
				client = host // per-IP quota: ports churn per connection
			}
			return svc.ServeClientLookup(client, m, serveTO), true
		case store.ClientPutReq:
			if gw == nil {
				return nil, false
			}
			return gw.ServeClientPut(m, serveTO), true
		case store.ClientGetReq:
			if gw == nil {
				return nil, false
			}
			return gw.ServeClientGet(m, serveTO), true
		}
		return admission(remote, req)
	}
}

// serve is the running phase: the optional verified lookup, then the status
// loop until ctx is cancelled.
func (d *daemon) serve(ctx context.Context) error {
	if d.opts.LookupKey != "" {
		if len(d.local) == 0 {
			return fmt.Errorf("-lookup needs a local node, but %s serves only the CA", d.opts.Listen)
		}
		if err := d.warmAndLookup(); err != nil {
			return err
		}
		if d.opts.Once {
			return nil
		}
	}
	// A non-positive period means no status line: the nil channel never
	// becomes ready (and time.NewTicker would panic on it).
	var tick <-chan time.Time
	if d.opts.StatusEach > 0 {
		ticker := time.NewTicker(d.opts.StatusEach)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			d.logStatus()
		case <-ctx.Done():
			log.Printf("shutting down")
			return nil
		}
	}
}

// warmAndLookup waits for the first local node's relay pool to stock, then
// resolves -lookup anonymously and verifies the answer. Verification has two
// modes: against the deterministic ground truth every static process derives
// locally (d.truth), or — when -expect-id names an owner, e.g. a dynamically
// joined node no seed can predict — against that identifier, retrying until
// the ring has converged on it or -lookup-retry expires.
func (d *daemon) warmAndLookup() error {
	opts, node := d.opts, d.local[0]
	self := node.Self()
	deadline := time.Now().Add(opts.WarmMax)
	for {
		var pool int
		var walks uint64
		inContext(d.tr, self.Addr, func() {
			pool = node.PoolSize()
			walks = node.Stats().WalksCompleted.Load()
		})
		if pool >= opts.WarmPairs {
			log.Printf("relay pool stocked: %d pairs after %d walks", pool, walks)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("relay pool still at %d/%d pairs after %v (%d walks done) — are the other processes up?",
				pool, opts.WarmPairs, opts.WarmMax, walks)
		}
		time.Sleep(200 * time.Millisecond)
	}

	key := id.FromBytes([]byte(opts.LookupKey))
	log.Printf("anonymous lookup of %q (key %s) from node %s", opts.LookupKey, key, self.ID)

	if opts.ExpectID != "" {
		want := id.FromBytes([]byte(opts.ExpectID))
		retryUntil := time.Now().Add(opts.LookupWait)
		for {
			owner, _, err := d.oneLookup(node, key)
			if err == nil && owner.ID == want {
				log.Printf("owner: %s @ slot %d", owner.ID, owner.Addr)
				log.Printf("lookup verified against expected owner %s", want)
				return nil
			}
			if time.Now().After(retryUntil) {
				return fmt.Errorf("lookup never resolved to expected owner %s (last: owner=%v err=%v)", want, owner, err)
			}
			if err != nil {
				log.Printf("lookup attempt failed (%v), retrying", err)
			} else {
				log.Printf("owner %s != expected %s yet, retrying", owner.ID, want)
			}
			time.Sleep(2 * time.Second)
		}
	}

	if d.truth == nil {
		return fmt.Errorf("-lookup without -expect-id needs a deterministic deployment for ground truth")
	}
	// Ground truth from the full deterministic INITIAL topology. The ring
	// can have grown since (this process serves admissions), so a dynamic
	// joiner legitimately owning the key is not a failure — only a wrong
	// answer within the static population is.
	want := d.truth(key)
	start := time.Now()
	owner, stats, err := d.oneLookup(node, key)
	if err != nil {
		return fmt.Errorf("lookup failed: %w", err)
	}
	log.Printf("owner: %s @ slot %d (%s) — %d queries + %d dummies, %v",
		owner.ID, owner.Addr, d.tr.Endpoint(owner.Addr), stats.Queries, stats.Dummies,
		time.Since(start).Round(time.Millisecond))
	if owner.ID != want.ID {
		// Static slots end at the CA's; joiners are allocated above it.
		if owner.Addr > d.caAddr {
			log.Printf("lookup resolved to dynamically joined node %s @ slot %d (static ground truth was %s); use -expect-id to verify grown rings",
				owner.ID, owner.Addr, want.ID)
			return nil
		}
		return fmt.Errorf("lookup verification FAILED: owner %s, ground truth %s", owner.ID, want.ID)
	}
	log.Printf("lookup verified against ground truth")
	return nil
}

// oneLookup performs a single anonymous lookup from the node's context and
// waits for the outcome.
func (d *daemon) oneLookup(node *core.Node, key id.ID) (chord.Peer, core.LookupStats, error) {
	type outcome struct {
		owner chord.Peer
		stats core.LookupStats
		err   error
	}
	out, ok := transport.Await(d.tr, node.Self().Addr, 2*time.Minute, func(done func(outcome)) {
		node.AnonLookup(key, func(owner chord.Peer, stats core.LookupStats, err error) {
			done(outcome{owner, stats, err})
		})
	})
	if !ok {
		return chord.NoPeer, core.LookupStats{}, fmt.Errorf("lookup never completed")
	}
	return out.owner, out.stats, out.err
}

// forever is transport.Await's "no deadline".
const forever = time.Duration(1<<63 - 1)

// inContext runs fn inside a node's serialization context and waits for it.
func inContext(tr transport.Transport, addr transport.Addr, fn func()) {
	transport.Await(tr, addr, forever, func(done func(struct{})) {
		fn()
		done(struct{}{})
	})
}

// logStatus renders the periodic status line from the same snapshots the
// /metrics endpoint serves — one instrumentation path, two consumers.
func (d *daemon) logStatus() {
	s := d.collector.Snapshot()
	line := fmt.Sprintf("status: pool=%d walks=%d lookups=%d queries=%d wire=%s out / %s in",
		int(s.GaugeSum(obs.PoolPairs)),
		uint64(s.CounterSum(obs.WalksCompleted)),
		uint64(s.CounterSum(obs.LookupsCompleted)),
		uint64(s.CounterSum(obs.LookupQueries)),
		fmtBytes(uint64(s.CounterSum(obs.TransportBytesSent))),
		fmtBytes(uint64(s.CounterSum(obs.TransportBytesReceived))))
	if d.svc != nil {
		line += fmt.Sprintf(" | served=%d failed=%d busy=%d active=%d queued=%d",
			uint64(s.CounterSum(obs.ServiceCompleted)),
			uint64(s.CounterSum(obs.ServiceFailed)),
			uint64(s.CounterSum(obs.ServiceRejected)),
			int(s.GaugeSum(obs.ServiceActive)),
			int(s.GaugeSum(obs.ServiceQueued)))
	}
	if d.gateway != nil {
		line += fmt.Sprintf(" | store: keys=%d puts=%d gets=%d hits=%d",
			int(s.GaugeSum(obs.StoreKeys)),
			uint64(s.CounterSum(obs.StorePuts)),
			uint64(s.CounterSum(obs.StoreGets)),
			uint64(s.CounterSum(obs.StoreHits)))
	}
	log.Print(line)
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
