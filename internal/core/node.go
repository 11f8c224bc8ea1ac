package core

import (
	"strconv"
	"sync/atomic"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// NodeStats is a node's activity counters. They are bumped from the node's
// serialization context but read with Load by daemons, services, and tests
// from arbitrary goroutines; atomics make that safe without dragging a lock
// into the protocol hot path.
type NodeStats struct {
	LookupsStarted, LookupsCompleted, LookupsFailed, QueriesSent, DummiesSent,
	WalksStarted, WalksCompleted, WalksFailed, ReportsSent, FallbackPairs,
	ChecksRun, RelayedForwards, RelayedReplies, RelayStateEvictions, RefillWalks,
	PairsDiscarded, CacheHits, CacheMisses, CacheFlushes atomic.Uint64
	// Membership events observed by this node.
	Announces, Revocations, JoinsAdmitted, JoinsRejected, Leaves,
	NeighborsDropped atomic.Uint64
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
	// the membership hooks that feed it; those are no-ops on nil.
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

	stats NodeStats
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
	// CA's delayed investigation. The CA asks only relays for receipts, so
	// what a node holds is its next hop's receipt for each forward it
	// relayed; its first relay's receipt for its own query is one bit of
	// the pending query (paths.takeHeadReceipt).
	routeTTL := 4 * cfg.QueryTimeout
	evidenceTTL := cfg.Chord.RPCTimeout + 20*cfg.QueryTimeout
	// Each table evicts fairly among the peers whose messages created its
	// entries: the previous hop, the receipt's signed issuer, the witness,
	// and for tombstones the node itself. A receipt watch lives as long as
	// its timer.
	evicted := &n.stats.RelayStateEvictions
	n.relay = &relay{n: n, routes: newQidTable(n.tr.Now, routeTTL, evicted,
		func(r backRoute) transport.Addr { return r.prev }),
		watches: newQidTable(n.tr.Now, cfg.Chord.RPCTimeout, evicted, func(w watch) transport.Addr { return w.from })}
	n.evidence = &evidence{
		n:          n,
		fingerProv: make(map[id.ID]chord.RoutingTable),
		receipts: newReceiptTable(newQidTable(n.tr.Now, evidenceTTL, evicted,
			func(r heldReceipt) transport.Addr { return r.addr })),
		statements: newQidTable(n.tr.Now, evidenceTTL, evicted,
			func(sts []WitnessResp) transport.Addr { return sts[0].Witness.Addr }),
	}
	n.paths = &paths{
		n:       n,
		pending: make(map[uint64]*pendingQuery),
		timedOut: newQidTable(n.tr.Now, routeTTL, evicted,
			func(bool) transport.Addr { return n.Chord.Self.Addr }),
	}
	n.lcache = newLookupCache(cfg.LookupCacheSize, cfg.LookupCacheTTL, n.tr.Now)
	cn.Cfg.DisableFingerUpdates = true
	cn.Extra = n.handleExtra
	cn.OnNeighborTable = n.evidence.recordProof
	cn.OnNeighborDropped = func(p chord.Peer) {
		n.stats.NeighborsDropped.Add(1)
		n.flushLookupCache()
		// The failure detector is the one-hop tier's local event source:
		// a dropped neighbor becomes an EDRA leave event.
		n.onehop.noteLeave(p.ID)
	}
	cn.AdmitJoin = n.admitJoin
	cn.VetLeave = n.vetLeave
	switch cfg.RoutingTier {
	case "", TierFinger:
		n.tier = cn.Tier
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

// Stats returns the node's live activity counters; read each with Load,
// from any goroutine.
func (n *Node) Stats() *NodeStats { return &n.stats }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Tier returns the node's routing tier.
func (n *Node) Tier() chord.RoutingTier { return n.tier }

// SeedTier installs ground-truth membership into a full-state tier (a
// no-op for the finger tier). Simulated deployments call it at build time
// to model the converged steady state a real deployment reaches after its
// joins complete. peers must be sorted by ID and never written again: the
// tier shares the array. Host serialization context only.
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
		n.obsLookupLat = obs.NewHistogram(obs.LookupLatency, obs.LatencyBuckets, n.nodeLabel())
	}
	c.Register(n.obsLookupLat)
	c.Register(n)
}

// CollectObs implements obs.Source: every node counter plus the
// relay-pair pool depth, labeled by node address.
func (n *Node) CollectObs(s *obs.Snapshot) {
	st := &n.stats
	l := n.nodeLabel()
	s.AddCounter(obs.LookupsStarted, float64(st.LookupsStarted.Load()), l)
	s.AddCounter(obs.LookupsCompleted, float64(st.LookupsCompleted.Load()), l)
	s.AddCounter(obs.LookupsFailed, float64(st.LookupsFailed.Load()), l)
	s.AddCounter(obs.LookupQueries, float64(st.QueriesSent.Load()), l)
	s.AddCounter(obs.LookupDummies, float64(st.DummiesSent.Load()), l)
	s.AddCounter(obs.WalksStarted, float64(st.WalksStarted.Load()), l)
	s.AddCounter(obs.WalksCompleted, float64(st.WalksCompleted.Load()), l)
	s.AddCounter(obs.WalksFailed, float64(st.WalksFailed.Load()), l)
	s.AddCounter(obs.DoSReports, float64(st.ReportsSent.Load()), l)
	s.AddCounter(obs.PoolFallbackPairs, float64(st.FallbackPairs.Load()), l)
	s.AddCounter(obs.SurveillanceChecks, float64(st.ChecksRun.Load()), l)
	s.AddCounter(obs.RelayForwards, float64(st.RelayedForwards.Load()), l)
	s.AddCounter(obs.RelayReplies, float64(st.RelayedReplies.Load()), l)
	s.AddCounter(obs.RelayStateEvictions, float64(st.RelayStateEvictions.Load()), l)
	s.AddCounter(obs.PoolRefillWalks, float64(st.RefillWalks.Load()), l)
	s.AddCounter(obs.PoolPairsDiscarded, float64(st.PairsDiscarded.Load()), l)
	s.AddCounter(obs.LookupCacheHits, float64(st.CacheHits.Load()), l)
	s.AddCounter(obs.LookupCacheMisses, float64(st.CacheMisses.Load()), l)
	s.AddCounter(obs.LookupCacheFlushes, float64(st.CacheFlushes.Load()), l)
	event := func(kind string, v *atomic.Uint64) {
		s.AddCounter(obs.MembershipEvents, float64(v.Load()), l, obs.L("event", kind))
	}
	event("announce", &st.Announces)
	event("revocation", &st.Revocations)
	event("join_admitted", &st.JoinsAdmitted)
	event("join_rejected", &st.JoinsRejected)
	event("leave", &st.Leaves)
	event("neighbor_dropped", &st.NeighborsDropped)
	s.AddGauge(obs.PoolPairs, float64(n.PoolSize()), l)

	ts := n.tier.Stats()
	tl := obs.L("tier", n.tier.Name())
	s.AddGauge(obs.TierEntries, float64(ts.Entries), l, tl)
	s.AddGauge(obs.TierStaleness, ts.Staleness.Seconds(), l, tl)
	s.AddCounter(obs.TierEvents, float64(ts.EventsApplied), l, tl)
	dir := func(d string, bytes, msgs uint64) {
		dl := obs.L("direction", d)
		s.AddCounter(obs.TierMaintenanceBytes, float64(bytes), l, tl, dl)
		s.AddCounter(obs.TierMaintenanceMsgs, float64(msgs), l, tl, dl)
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
		if !n.paths.takeHeadReceipt(m) && n.evidence.addReceipt(m) {
			n.relay.disarm(m.QID)
		}
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
