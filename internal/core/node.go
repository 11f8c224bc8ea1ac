package core

import (
	"errors"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// nodeCounters is the live, concurrency-safe form of obs.NodeCounters,
// the canonical snapshot type nodes publish through obs.Collector. Counters
// are bumped from the node's serialization context but read by daemons,
// services, and tests from arbitrary goroutines; atomics make that safe
// without dragging a lock into the protocol hot path.
type nodeCounters struct {
	lookupsStarted   atomic.Uint64
	lookupsCompleted atomic.Uint64
	lookupsFailed    atomic.Uint64
	queriesSent      atomic.Uint64
	dummiesSent      atomic.Uint64
	walksStarted     atomic.Uint64
	walksCompleted   atomic.Uint64
	walksFailed      atomic.Uint64
	reportsSent      atomic.Uint64
	fallbackPairs    atomic.Uint64
	checksRun        atomic.Uint64
	relayedForwards  atomic.Uint64
	relayedReplies   atomic.Uint64
	refillWalks      atomic.Uint64
	pairsDiscarded   atomic.Uint64
	cacheHits        atomic.Uint64
	cacheMisses      atomic.Uint64
	cacheFlushes     atomic.Uint64
	announces        atomic.Uint64
	revocations      atomic.Uint64
	joinsAdmitted    atomic.Uint64
	joinsRejected    atomic.Uint64
	leaves           atomic.Uint64
	neighborsDropped atomic.Uint64
}

func (c *nodeCounters) snapshot() obs.NodeCounters {
	return obs.NodeCounters{
		LookupsStarted:   c.lookupsStarted.Load(),
		LookupsCompleted: c.lookupsCompleted.Load(),
		LookupsFailed:    c.lookupsFailed.Load(),
		QueriesSent:      c.queriesSent.Load(),
		DummiesSent:      c.dummiesSent.Load(),
		WalksStarted:     c.walksStarted.Load(),
		WalksCompleted:   c.walksCompleted.Load(),
		WalksFailed:      c.walksFailed.Load(),
		ReportsSent:      c.reportsSent.Load(),
		FallbackPairs:    c.fallbackPairs.Load(),
		ChecksRun:        c.checksRun.Load(),
		RelayedForwards:  c.relayedForwards.Load(),
		RelayedReplies:   c.relayedReplies.Load(),
		RefillWalks:      c.refillWalks.Load(),
		PairsDiscarded:   c.pairsDiscarded.Load(),
		CacheHits:        c.cacheHits.Load(),
		CacheMisses:      c.cacheMisses.Load(),
		CacheFlushes:     c.cacheFlushes.Load(),
		Announces:        c.announces.Load(),
		Revocations:      c.revocations.Load(),
		JoinsAdmitted:    c.joinsAdmitted.Load(),
		JoinsRejected:    c.joinsRejected.Load(),
		Leaves:           c.leaves.Load(),
		NeighborsDropped: c.neighborsDropped.Load(),
	}
}

// backRoute is per-relay reverse-path state for one query.
type backRoute struct {
	prev  transport.Addr
	delay time.Duration
}

// pendingQuery is initiator-side state for one outstanding anonymous query.
type pendingQuery struct {
	cb    func(transport.Message, error)
	timer transport.Timer
}

// ErrQueryTimeout is reported when an anonymous query's reply never returns.
var ErrQueryTimeout = errors.New("core: anonymous query timed out")

// ErrExitFailed is reported when the reply came back but the exit relay
// could not reach the queried node (dead target — the path itself worked).
var ErrExitFailed = errors.New("core: exit relay could not reach the queried node")

// ErrNoRelays is reported when no relay pair can be assembled.
var ErrNoRelays = errors.New("core: relay pool empty and no fallback available")

// Node is one Octopus participant.
type Node struct {
	cfg    Config
	Chord  *chord.Node
	tr     transport.Transport
	caAddr transport.Addr
	dir    *Directory

	// tier is the routing state lookups converge over (Config.RoutingTier).
	// The finger tier wraps the chord node's own state; the one-hop tier
	// owns a full table maintained over the 0x08xx registry. onehop is the
	// same object when that tier is selected (nil otherwise), typed for
	// the membership hooks that feed it.
	tier   chord.RoutingTier
	onehop *oneHopTier

	qidSeq  uint64
	walkSeq uint64
	nextFix int

	backRoutes map[uint64]backRoute
	pending    map[uint64]*pendingQuery
	receipts   map[uint64]Receipt
	statements map[uint64][]WitnessResp
	// timedOut tombstones the initiator's own queries whose deadline fired
	// while the reply could still be in flight; the value flips to true
	// when the reply then does arrive. A LATE reply — even a failed one —
	// proves every relay did its job, so it must cancel the pending
	// selective-DoS report: without this, a slow exit round trip (the
	// exit's own RPC timeout plus tail latency can exceed QueryTimeout)
	// ends with the CA walking a fully receipted chain and blaming the
	// honest exit for a query that was answered, just slowly.
	timedOut map[uint64]bool

	// lcache caches successful anonymous-lookup results (host-context
	// only); nil when Config.LookupCacheSize is zero.
	lcache *lookupCache

	// pairs stocks the relay pairs anonymous operations draw from.
	pairs *pairPool

	proofQueue  []chord.RoutingTable
	tableBuffer []chord.RoutingTable
	// fingerProv records, keyed by the installed finger's identifier,
	// the signed table that vouched for it during its secured update
	// (§4.5). When the CA later questions the finger — possibly after
	// the slot has already healed — this provenance shifts the blame to
	// the deceiver.
	fingerProv map[id.ID]chord.RoutingTable

	stats nodeCounters
	stops []func()

	// tracer, when set, records per-hop spans for the anonymous paths
	// (obs layer; nil means no tracing). obsLookupLat is the lookup
	// latency histogram AttachObs registers; both are nil-safe at the
	// observation sites, so unattached nodes pay only a nil check.
	tracer       *obs.Tracer
	obsLookupLat *obs.Histogram

	// OnNeighborCheck observes each completed neighbor-surveillance
	// probe: the tested predecessor and whether a provable omission was
	// found (experiment instrumentation for Table 2's accuracy rates).
	OnNeighborCheck func(target chord.Peer, detected bool)
	// OnFingerCheck observes each completed finger consistency probe:
	// the table owner under test, the claimed finger that was checked,
	// and whether a closer node was found.
	OnFingerCheck func(owner, claimed chord.Peer, detected bool, err error)
	// Extra handles message types unknown to the Octopus layer, exactly as
	// chord.Node.Extra forwards what the routing layer does not understand.
	// internal/store installs its 0x06xx handlers here.
	Extra transport.Handler
}

// New builds an Octopus node over an existing Chord node (whose tables must
// be signed — SignTables is forced on). caAddr is the CA's network address;
// dir supplies certificate material for verifying table signatures.
func New(cn *chord.Node, cfg Config, caAddr transport.Addr, dir *Directory) *Node {
	cfg.Chord = cn.Cfg
	cfg.Chord.SignTables = true
	cn.Cfg.SignTables = true
	n := &Node{
		cfg:        cfg,
		Chord:      cn,
		tr:         cn.Transport(),
		caAddr:     caAddr,
		dir:        dir,
		backRoutes: make(map[uint64]backRoute),
		pending:    make(map[uint64]*pendingQuery),
		receipts:   make(map[uint64]Receipt),
		statements: make(map[uint64][]WitnessResp),
		timedOut:   make(map[uint64]bool),
		fingerProv: make(map[id.ID]chord.RoutingTable),
	}
	n.lcache = newLookupCache(cfg.LookupCacheSize, cfg.LookupCacheTTL, n.tr.Now)
	cn.Cfg.DisableFingerUpdates = true
	cn.Extra = n.handleExtra
	cn.OnNeighborTable = n.recordProof
	cn.OnNeighborDropped = func(p chord.Peer) {
		n.stats.neighborsDropped.Add(1)
		n.flushLookupCache()
		// The failure detector is the one-hop tier's local event source:
		// a dropped neighbor becomes an EDRA leave event.
		if n.onehop != nil {
			n.onehop.noteLeave(p.ID)
		}
	}
	cn.AdmitJoin = n.admitJoin
	cn.VetLeave = n.vetLeave
	switch cfg.RoutingTier {
	case "", TierFinger:
		n.tier = chord.NewFingerTier(cn)
	case TierOneHop:
		n.onehop = newOneHopTier(n)
		n.tier = n.onehop
		// Route the chord node's own FindNext answers through the full
		// table too: joins and baseline lookups collapse to O(1) hops.
		cn.Tier = n.onehop
	default:
		panic("core: unknown RoutingTier " + strconv.Quote(cfg.RoutingTier))
	}
	n.pairs = newPairPool(n)
	return n
}

// Self returns the node's peer identity.
func (n *Node) Self() chord.Peer { return n.Chord.Self }

// Stats returns a snapshot of the activity counters. Safe from any
// goroutine.
func (n *Node) Stats() obs.NodeCounters { return n.stats.snapshot() }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Tier returns the node's routing tier.
func (n *Node) Tier() chord.RoutingTier { return n.tier }

// SeedTier installs ground-truth membership into a full-state tier (a
// no-op for the finger tier). Simulated deployments call it at build time
// to model the converged steady state a real deployment reaches after its
// joins complete. Host serialization context only.
func (n *Node) SeedTier(peers []chord.Peer) {
	if n.onehop != nil {
		n.onehop.seed(peers)
	}
}

// PoolSize reports the number of unused relay pairs. Safe from any
// goroutine (it reads a gauge mirroring the host-context pool).
func (n *Node) PoolSize() int { return n.pairs.size() }

// SetTracer installs the span tracer for this node's anonymous paths.
// Call before Start; a nil tracer (the default) disables tracing.
func (n *Node) SetTracer(t *obs.Tracer) { n.tracer = t }

// Tracer returns the installed span tracer (nil when tracing is off).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// nodeLabel is the obs series label identifying this node within a
// process that hosts several.
func (n *Node) nodeLabel() obs.Label {
	return obs.L("node", strconv.Itoa(int(n.Chord.Self.Addr)))
}

// AttachObs registers this node with the collector: the protocol counters
// and pool gauge (via CollectObs) plus the anonymous-lookup latency
// histogram. Call before Start.
func (n *Node) AttachObs(c *obs.Collector) {
	if n.obsLookupLat == nil {
		n.obsLookupLat = obs.NewHistogram(
			"octopus_lookup_latency_seconds", obs.LatencyBuckets, n.nodeLabel())
	}
	c.Register(n.obsLookupLat)
	c.Register(n)
}

// CollectObs implements obs.Source: every node counter plus the
// relay-pair pool depth, labeled by node address.
func (n *Node) CollectObs(s *obs.Snapshot) {
	st := n.stats.snapshot()
	l := n.nodeLabel()
	s.AddCounter("octopus_lookups_started_total", float64(st.LookupsStarted), l)
	s.AddCounter("octopus_lookups_completed_total", float64(st.LookupsCompleted), l)
	s.AddCounter("octopus_lookups_failed_total", float64(st.LookupsFailed), l)
	s.AddCounter("octopus_lookup_queries_total", float64(st.QueriesSent), l)
	s.AddCounter("octopus_lookup_dummies_total", float64(st.DummiesSent), l)
	s.AddCounter("octopus_walks_started_total", float64(st.WalksStarted), l)
	s.AddCounter("octopus_walks_completed_total", float64(st.WalksCompleted), l)
	s.AddCounter("octopus_walks_failed_total", float64(st.WalksFailed), l)
	s.AddCounter("octopus_dos_reports_total", float64(st.ReportsSent), l)
	s.AddCounter("octopus_pool_fallback_pairs_total", float64(st.FallbackPairs), l)
	s.AddCounter("octopus_surveillance_checks_total", float64(st.ChecksRun), l)
	s.AddCounter("octopus_relay_forwards_total", float64(st.RelayedForwards), l)
	s.AddCounter("octopus_relay_replies_total", float64(st.RelayedReplies), l)
	s.AddCounter("octopus_pool_refill_walks_total", float64(st.RefillWalks), l)
	s.AddCounter("octopus_pool_pairs_discarded_total", float64(st.PairsDiscarded), l)
	s.AddCounter("octopus_lookup_cache_hits_total", float64(st.CacheHits), l)
	s.AddCounter("octopus_lookup_cache_misses_total", float64(st.CacheMisses), l)
	s.AddCounter("octopus_lookup_cache_flushes_total", float64(st.CacheFlushes), l)
	event := func(kind string, v uint64) {
		s.AddCounter("octopus_membership_events_total", float64(v), l, obs.L("event", kind))
	}
	event("announce", st.Announces)
	event("revocation", st.Revocations)
	event("join_admitted", st.JoinsAdmitted)
	event("join_rejected", st.JoinsRejected)
	event("leave", st.Leaves)
	event("neighbor_dropped", st.NeighborsDropped)
	s.AddGauge("octopus_pool_pairs", float64(n.PoolSize()), l)

	ts := n.tier.Stats()
	tl := obs.L("tier", n.tier.Name())
	s.AddGauge("octopus_tier_entries", float64(ts.Entries), l, tl)
	s.AddGauge("octopus_tier_staleness_seconds", ts.Staleness.Seconds(), l, tl)
	s.AddCounter("octopus_tier_events_total", float64(ts.EventsApplied), l, tl)
	dir := func(d string, bytes, msgs uint64) {
		dl := obs.L("direction", d)
		s.AddCounter("octopus_tier_maintenance_bytes_total", float64(bytes), l, tl, dl)
		s.AddCounter("octopus_tier_maintenance_msgs_total", float64(msgs), l, tl, dl)
	}
	dir("sent", ts.BytesSent, ts.MsgsSent)
	dir("received", ts.BytesReceived, ts.MsgsReceived)
}

// Start launches the Chord layer plus Octopus's periodic machinery.
func (n *Node) Start() {
	n.Chord.Start()
	n.StartProtocols()
}

// StartProtocols launches only the Octopus-level timers (relay-selection
// walks, both surveillance checks, secured finger updates); the Chord layer
// must already be running. Builders that start the Chord ring first use
// this entry point. On a node whose Chord layer has already been stopped
// (ejected before its deferred start fired) it is a no-op.
func (n *Node) StartProtocols() {
	if !n.Chord.Running() {
		return
	}
	n.stops = append(n.stops,
		n.tr.Every(n.Chord.Self.Addr, n.cfg.WalkEvery, func() { n.startWalk(func(bool) {}) }),
		n.tr.Every(n.Chord.Self.Addr, n.cfg.SurveilEvery, n.neighborSurveillance),
		n.tr.Every(n.Chord.Self.Addr, n.cfg.SurveilEvery, n.fingerSurveillance),
		n.tr.Every(n.Chord.Self.Addr, n.cfg.Chord.FixFingersEvery, n.secureFingerUpdate),
	)
	if n.onehop != nil {
		n.onehop.start()
	}
	// A managed pool starts stocking immediately instead of waiting for
	// the first WalkEvery tick.
	n.pairs.refill()
}

// Stop halts all timers and the Chord layer.
func (n *Node) Stop() {
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	n.Chord.Stop()
}

// recordProof keeps the most recent signed successor lists received during
// stabilization — the pollution proofs of §4.3 (Fig. 2(b)).
func (n *Node) recordProof(src chord.Peer, table chord.RoutingTable) {
	if table.Successors == nil {
		return // anti-clockwise tables carry predecessors; not proofs
	}
	n.proofQueue = append(n.proofQueue, table.Clone())
	if len(n.proofQueue) > n.cfg.ProofQueue {
		n.proofQueue = n.proofQueue[len(n.proofQueue)-n.cfg.ProofQueue:]
	}
}

// recordFingerProvenance stores a finger's vouching table. Entries are
// pruned by age, never by count pressure alone — evicting live provenance
// would leave an honest node unable to prove it was deceived.
func (n *Node) recordFingerProvenance(finger id.ID, evidence chord.RoutingTable) {
	const maxAge = 10 * time.Minute
	if len(n.fingerProv) > 512 {
		cutoff := n.tr.Now() - maxAge
		for k, v := range n.fingerProv {
			if v.Timestamp < cutoff {
				delete(n.fingerProv, k)
			}
		}
	}
	n.fingerProv[finger] = evidence.Clone()
}

// bufferTable stores a received fingertable for later secret finger
// surveillance (§4.4).
func (n *Node) bufferTable(t chord.RoutingTable) {
	if len(t.Fingers) == 0 {
		return
	}
	n.tableBuffer = append(n.tableBuffer, t.Clone())
	if len(n.tableBuffer) > n.cfg.TableBuffer {
		n.tableBuffer = n.tableBuffer[len(n.tableBuffer)-n.cfg.TableBuffer:]
	}
}

// handleExtra dispatches Octopus-specific messages arriving at the Chord
// layer.
func (n *Node) handleExtra(from transport.Addr, req transport.Message) (transport.Message, bool) {
	switch m := req.(type) {
	case RelayForward:
		n.handleForward(from, m)
		return nil, false
	case RelayReply:
		n.handleReply(from, m)
		return nil, false
	case Receipt:
		n.receipts[m.QID] = m
		return nil, false
	case ProofReq:
		return n.handleProofReq(m), true
	case WitnessReq:
		n.serveWitness(from, m)
		return nil, false
	case WitnessResp:
		n.statements[m.QID] = append(n.statements[m.QID], m)
		return nil, false
	case EndpointAnnounce:
		n.handleAnnounce(m)
		return nil, false
	case RevocationAnnounce:
		n.handleRevocation(m)
		return nil, false
	case TierEventNotify:
		if n.onehop != nil {
			n.onehop.handleEventNotify(m)
		}
		return nil, false
	case TierSyncReq:
		if n.onehop != nil {
			return n.onehop.handleSyncReq(m), true
		}
		return nil, false
	default:
		if n.Extra != nil {
			return n.Extra(from, req)
		}
		return nil, false
	}
}

// handleForward implements the relay role: issue a receipt, record the
// reverse path, honor the layer's artificial delay, then forward inward or
// perform the exit query.
func (n *Node) handleForward(from transport.Addr, m RelayForward) {
	n.stats.relayedForwards.Add(1)
	n.sendReceipt(from, m.QID)
	n.backRoutes[m.QID] = backRoute{prev: from, delay: m.Delay}
	// Reverse-path state for queries whose replies never come back must
	// not accumulate forever.
	qid := m.QID
	n.tr.After(n.Chord.Self.Addr, 4*n.cfg.QueryTimeout, func() { delete(n.backRoutes, qid) })

	t0 := n.tr.Now()
	deliver := func() {
		if m.Exit != nil {
			n.recordHopSpan("relay.exit", m.QID, t0, from, m.Exit.Target)
			n.performExit(m.QID, *m.Exit)
			return
		}
		if m.Local != nil {
			n.handleLocalDelivery(m.QID, m.Local)
			return
		}
		if m.Inner == nil || m.Next == transport.NoAddr {
			return
		}
		n.recordHopSpan("relay.forward", m.QID, t0, from, m.Next)
		n.tr.Send(n.Chord.Self.Addr, m.Next, *m.Inner)
		n.watchReceipt(m.QID, m.Next, m.Inner)
	}
	if m.Delay > 0 {
		n.tr.After(n.Chord.Self.Addr, time.Duration(n.tr.Rand().Int63n(int64(m.Delay))), deliver)
		return
	}
	deliver()
}

// recordHopSpan records one relay-side tracing span covering this node's
// part of an anonymous query: from arrival to the moment the layer was
// forwarded (or the exit query issued), which makes the artificial relay
// delay visible per hop. The from/next/target attributes and the query id
// are scrubbed by the tracer in anonymous mode — the qid's low bits encode
// the initiator's address, so it must never leave the process unredacted.
func (n *Node) recordHopSpan(name string, qid uint64, start time.Duration, from, to transport.Addr) {
	if n.tracer == nil {
		return
	}
	// Both branches use a constant key from the redaction seam's
	// sensitive set, so anonleak can prove the value is scrubbed.
	toAttr := obs.A("next", strconv.Itoa(int(to)))
	if name == "relay.exit" {
		toAttr = obs.A("target", strconv.Itoa(int(to)))
	}
	n.tracer.Record(obs.Span{
		Trace: qid,
		Name:  name,
		Node:  strconv.Itoa(int(n.Chord.Self.Addr)),
		Start: start,
		End:   n.tr.Now(),
		Attrs: []obs.Attr{
			obs.A("from", strconv.Itoa(int(from))),
			toAttr,
		},
	})
}

// performExit executes the innermost layer: query the target node and route
// the answer backwards.
func (n *Node) performExit(qid uint64, exit ExitAction) {
	n.tr.Call(n.Chord.Self.Addr, exit.Target, exit.Req, n.cfg.Chord.RPCTimeout,
		func(resp transport.Message, err error) {
			reply := RelayReply{QID: qid, Depth: 1}
			if err != nil {
				reply.Failed = true
			} else {
				reply.Resp = resp
			}
			n.routeReplyBack(qid, reply)
		})
}

// handleReply routes an answer one hop back toward the initiator, applying
// the same artificial delay the forward leg used at this relay.
func (n *Node) handleReply(from transport.Addr, m RelayReply) {
	if p, ok := n.pending[m.QID]; ok {
		delete(n.pending, m.QID)
		p.timer.Cancel()
		if m.Failed {
			p.cb(nil, ErrExitFailed)
			return
		}
		p.cb(m.Resp, nil)
		return
	}
	if _, mine := n.timedOut[m.QID]; mine {
		// Our own query's reply arriving after the deadline: record it so
		// the dropped-query report (still pinging the relays) stands down.
		n.timedOut[m.QID] = true
		return
	}
	n.stats.relayedReplies.Add(1)
	m.Depth++
	n.routeReplyBack(m.QID, m)
}

func (n *Node) routeReplyBack(qid uint64, m RelayReply) {
	route, ok := n.backRoutes[qid]
	if !ok {
		return
	}
	delete(n.backRoutes, qid)
	send := func() { n.tr.Send(n.Chord.Self.Addr, route.prev, m) }
	if route.delay > 0 {
		n.tr.After(n.Chord.Self.Addr, time.Duration(n.tr.Rand().Int63n(int64(route.delay))), send)
		return
	}
	send()
}

// handleLocalDelivery processes the innermost layer of a relayed message
// addressed to this node itself (currently only phase-2 walk seeds). The
// handler must eventually answer via routeReplyBack with the same QID.
func (n *Node) handleLocalDelivery(qid uint64, req transport.Message) {
	if m, ok := req.(WalkSeedReq); ok {
		n.runPhaseTwo(qid, m)
	}
}

// chainQuery sends req through an arbitrary relay route and returns the
// query identifier. With a valid target the final relay acts as exit and
// queries target; with target == chord.NoPeer the final relay consumes req
// itself (Local delivery). delayAt, when >= 0, selects the route index that
// must add the random anti-timing delay. cb is invoked exactly once, always
// asynchronously.
func (n *Node) chainQuery(route []chord.Peer, target chord.Peer, req transport.Message,
	timeout time.Duration, delayAt int, cb func(transport.Message, error)) uint64 {
	if len(route) == 0 {
		// Degenerate direct query (bootstrap only).
		n.tr.Call(n.Chord.Self.Addr, target.Addr, req, timeout, cb)
		return 0
	}
	n.qidSeq++
	qid := n.qidSeq<<16 | uint64(n.Chord.Self.Addr)&0xffff

	// Build layers inside-out.
	var inner *RelayForward
	if target.Valid() {
		inner = &RelayForward{QID: qid, Exit: &ExitAction{Target: target.Addr, Req: req}, Depth: 1}
	} else {
		inner = &RelayForward{QID: qid, Local: req, Depth: 1}
	}
	// inner is the layer for route[len-1]; wrap the remaining relays.
	for i := len(route) - 1; i >= 1; i-- {
		layer := &RelayForward{QID: qid, Next: route[i].Addr, Inner: inner, Depth: inner.Depth + 1}
		if i-1 == delayAt {
			layer.Delay = n.cfg.RelayDelayMax
		}
		inner = layer
	}
	timer := n.tr.After(n.Chord.Self.Addr, timeout, func() {
		if p, ok := n.pending[qid]; ok {
			delete(n.pending, qid)
			// Tombstone the query so a reply still in flight is
			// recognized as late (not relayed traffic) and can veto the
			// DoS report; retention outlives the report's ping round.
			n.timedOut[qid] = false
			n.tr.After(n.Chord.Self.Addr, 4*n.cfg.QueryTimeout, func() { delete(n.timedOut, qid) })
			p.cb(nil, ErrQueryTimeout)
		}
	})
	n.pending[qid] = &pendingQuery{cb: cb, timer: timer}
	n.tr.Send(n.Chord.Self.Addr, route[0].Addr, *inner)
	return qid
}

// AnonRPC sends one request to target over a fresh 4-relay anonymous path —
// a head pair plus a disjoint per-query pair drawn exactly as a lookup's
// queries draw theirs — and invokes cb exactly once with the target's
// response. The target never learns the initiator: it sees only the exit
// relay. internal/store rides its reads and writes on this so a stored key
// is never linkable to the node that put or fetched it. Must be called from
// the node's serialization context; cb may run synchronously when no relay
// pair can be assembled (ErrNoRelays).
func (n *Node) AnonRPC(target chord.Peer, req transport.Message, cb func(transport.Message, error)) {
	head, err := n.pairs.take(nil)
	if err != nil {
		cb(nil, err)
		return
	}
	pair, err := n.pairs.take(&head)
	if err != nil {
		cb(nil, err)
		return
	}
	n.anonQuery(head, pair, target, req, cb)
}

// anonQuery sends req to target through the 4-relay anonymous path
// I → A → B → Ci → Di → target (Fig. 1(b)) and invokes cb exactly once.
// head is the lookup's shared (A, B) pair; pair is this query's (Ci, Di).
// Relay B (route index 1) adds the anti-timing-analysis delay (§4.7). With
// DoSDefense on, a silent loss triggers the Appendix II reporting path.
func (n *Node) anonQuery(head, pair RelayPair, target chord.Peer, req transport.Message, cb func(transport.Message, error)) {
	n.stats.queriesSent.Add(1)
	route := []chord.Peer{head.First, head.Second, pair.First, pair.Second}
	var qid uint64
	qid = n.chainQuery(route, target, req, n.cfg.QueryTimeout, 1,
		func(resp transport.Message, err error) {
			// chainQuery completes strictly asynchronously, so qid is
			// assigned by the time this runs. Only a silent loss
			// implicates the path; an explicit exit failure means the
			// relays all did their job (the target was unreachable).
			if errors.Is(err, ErrQueryTimeout) && n.cfg.DoSDefense {
				n.reportDroppedQuery(qid, head, pair)
			}
			cb(resp, err)
		})
}
