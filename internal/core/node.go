package core

import (
	"strconv"
	"sync/atomic"

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
	lookupsStarted, lookupsCompleted, lookupsFailed, queriesSent, dummiesSent,
	walksStarted, walksCompleted, walksFailed, reportsSent, fallbackPairs,
	checksRun, relayedForwards, relayedReplies, relayStateEvictions, refillWalks,
	pairsDiscarded, cacheHits, cacheMisses, cacheFlushes, announces, revocations,
	joinsAdmitted, joinsRejected, leaves, neighborsDropped atomic.Uint64
}

func (c *nodeCounters) snapshot() obs.NodeCounters {
	return obs.NodeCounters{
		LookupsStarted:      c.lookupsStarted.Load(),
		LookupsCompleted:    c.lookupsCompleted.Load(),
		LookupsFailed:       c.lookupsFailed.Load(),
		QueriesSent:         c.queriesSent.Load(),
		DummiesSent:         c.dummiesSent.Load(),
		WalksStarted:        c.walksStarted.Load(),
		WalksCompleted:      c.walksCompleted.Load(),
		WalksFailed:         c.walksFailed.Load(),
		ReportsSent:         c.reportsSent.Load(),
		FallbackPairs:       c.fallbackPairs.Load(),
		ChecksRun:           c.checksRun.Load(),
		RelayedForwards:     c.relayedForwards.Load(),
		RelayedReplies:      c.relayedReplies.Load(),
		RelayStateEvictions: c.relayStateEvictions.Load(),
		RefillWalks:         c.refillWalks.Load(),
		PairsDiscarded:      c.pairsDiscarded.Load(),
		CacheHits:           c.cacheHits.Load(),
		CacheMisses:         c.cacheMisses.Load(),
		CacheFlushes:        c.cacheFlushes.Load(),
		Announces:           c.announces.Load(),
		Revocations:         c.revocations.Load(),
		JoinsAdmitted:       c.joinsAdmitted.Load(),
		JoinsRejected:       c.joinsRejected.Load(),
		Leaves:              c.leaves.Load(),
		NeighborsDropped:    c.neighborsDropped.Load(),
	}
}

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

	// The three per-query roles, each the sole owner of its state: a hop on
	// others' paths, the keeper of evidence, the initiator of its own paths.
	relay    *relay
	evidence *evidence
	paths    *paths

	// lcache caches successful anonymous-lookup results (host-context
	// only); nil when Config.LookupCacheSize is zero.
	lcache *lookupCache

	// pairs stocks the relay pairs anonymous operations draw from.
	pairs *pairPool

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

// New builds an Octopus node over an existing Chord node, which signs its
// tables once it holds an identity. caAddr is the CA's network address; dir
// supplies certificate material for verifying table signatures.
func New(cn *chord.Node, cfg Config, caAddr transport.Addr, dir *Directory) *Node {
	cfg.Chord = cn.Cfg
	n := &Node{cfg: cfg, Chord: cn, tr: cn.Transport(), caAddr: caAddr, dir: dir}
	// How long the node holds state for somebody's query, decided here and
	// nowhere else: routes and tombstones outlive the query and its
	// dropped-query pings; receipts and statements the witness round and the
	// CA's delayed investigation.
	routeTTL := 4 * cfg.QueryTimeout
	evidenceTTL := cfg.Chord.RPCTimeout + 20*cfg.QueryTimeout
	evicted := &n.stats.relayStateEvictions
	n.relay = &relay{n: n, routes: newQidTable[backRoute](n.tr.Now, routeTTL, evicted)}
	n.evidence = &evidence{
		n:          n,
		fingerProv: make(map[id.ID]chord.RoutingTable),
		receipts:   newQidTable[Receipt](n.tr.Now, evidenceTTL, evicted),
		statements: newQidTable[[]WitnessResp](n.tr.Now, evidenceTTL, evicted),
	}
	n.paths = &paths{
		n:        n,
		pending:  make(map[uint64]*pendingQuery),
		timedOut: newQidTable[bool](n.tr.Now, routeTTL, evicted),
	}
	n.lcache = newLookupCache(cfg.LookupCacheSize, cfg.LookupCacheTTL, n.tr.Now)
	cn.Cfg.DisableFingerUpdates = true
	cn.Extra = n.handleExtra
	cn.OnNeighborTable = n.evidence.recordProof
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
	s.AddCounter("octopus_relay_state_evictions_total", float64(st.RelayStateEvictions), l)
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
		n.tr.Every(n.Chord.Self.Addr, n.cfg.WalkEvery, n.pairs.beat),
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

// handleExtra dispatches Octopus-specific messages arriving at the Chord
// layer. Of Octopus's own messages only ProofReq and TierSyncReq are
// requests; the rest are one-way.
func (n *Node) handleExtra(from transport.Addr, req transport.Message) (transport.Message, bool) {
	switch m := req.(type) {
	case RelayForward:
		n.relay.forward(from, m)
	case RelayReply:
		if !n.paths.deliver(m) {
			n.relay.carry(m)
		}
	case Receipt:
		n.evidence.addReceipt(m)
	case ProofReq:
		return n.evidence.answer(m), true
	case WitnessReq:
		n.relay.serveWitness(from, m)
	case WitnessResp:
		n.evidence.addStatement(m)
	case EndpointAnnounce:
		n.handleAnnounce(m)
	case RevocationAnnounce:
		n.handleRevocation(m)
	case TierEventNotify:
		if n.onehop != nil {
			n.onehop.handleEventNotify(m)
		}
	case TierSyncReq:
		if n.onehop != nil {
			return n.onehop.handleSyncReq(m), true
		}
	default:
		if n.Extra != nil {
			return n.Extra(from, req)
		}
	}
	return nil, false
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
	n.paths.anonQuery(head, pair, target, req, cb)
}
