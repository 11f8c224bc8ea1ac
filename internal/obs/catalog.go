package obs

// Every metric the system exports is declared once, below, as a
// package-level value of its kind's type. Only this package can make one,
// so an emission site names a metric by its catalog value: an unregistered
// name, or a counter emitted as a gauge, does not compile. The exporter
// takes HELP text from the catalog, and DEPLOYMENT.md's "Metric catalog"
// table mirrors it row for row (TestRealDeploymentDocInSync).

// CounterDef, GaugeDef and HistogramDef name one catalog metric of their
// kind. The zero value names nothing.
type (
	CounterDef   struct{ name string }
	GaugeDef     struct{ name string }
	HistogramDef struct{ name string }
)

// metricDef is one catalog row.
type metricDef struct {
	name, kind, help string
}

// catalog holds every declared metric in declaration order.
var catalog []metricDef

func register(name, kind, help string) string {
	catalog = append(catalog, metricDef{name, kind, help})
	return name
}

func counter(name, help string) CounterDef { return CounterDef{register(name, "counter", help)} }
func gauge(name, help string) GaugeDef     { return GaugeDef{register(name, "gauge", help)} }
func histogram(name, help string) HistogramDef {
	return HistogramDef{register(name, "histogram", help)}
}

// helpText is a family's HELP text: its catalog help, or its name when it
// is not in the catalog.
func helpText(name string) string {
	for _, d := range catalog {
		if d.name == name {
			return d.help
		}
	}
	return name
}

// Anonymous lookups and the relay-pair machinery (per node).
var (
	LookupsStarted      = counter("octopus_lookups_started_total", "Anonymous lookups started by this node.")
	LookupsCompleted    = counter("octopus_lookups_completed_total", "Anonymous lookups that returned a result.")
	LookupsFailed       = counter("octopus_lookups_failed_total", "Anonymous lookups that ended in an error: no relay pair to start with, an exhausted query budget, or any other lookup failure.")
	LookupQueries       = counter("octopus_lookup_queries_total", "Anonymous queries sent over relay pairs.")
	LookupDummies       = counter("octopus_lookup_dummies_total", "Dummy (cover-traffic) queries sent.")
	LookupLatency       = histogram("octopus_lookup_latency_seconds", "End-to-end anonymous lookup latency at the initiator.")
	LookupCacheHits     = counter("octopus_lookup_cache_hits_total", "Lookup-result cache hits.")
	LookupCacheMisses   = counter("octopus_lookup_cache_misses_total", "Lookup-result cache misses.")
	LookupCacheFlushes  = counter("octopus_lookup_cache_flushes_total", "Whole-cache invalidations from membership events.")
	PoolPairs           = gauge("octopus_pool_pairs", "Relay pairs currently available in the managed pool.")
	PoolFallbackPairs   = counter("octopus_pool_fallback_pairs_total", "Relay pairs built on demand because the pool was empty; one lookup or store RPC can take several.")
	PoolRefillWalks     = counter("octopus_pool_refill_walks_total", "Walks launched by the pool's walk-ahead refill.")
	PoolPairsDiscarded  = counter("octopus_pool_pairs_discarded_total", "Pooled pairs dropped by freshness/liveness vetting.")
	RelayForwards       = counter("octopus_relay_forwards_total", "Anonymous queries this node forwarded as a relay.")
	RelayReplies        = counter("octopus_relay_replies_total", "Anonymous replies this node carried back as a relay.")
	RelayStateEvictions = counter("octopus_relay_state_evictions_total", "Per-query relay state (reverse routes, tombstones, receipts, witness statements) retired early because a table was full, an eighth of the table per eviction pass: is someone exhausting my relay state?")
	WalksStarted        = counter("octopus_walks_started_total", "Random walks started (relay-pair discovery).")
	WalksCompleted      = counter("octopus_walks_completed_total", "Random walks that produced a relay pair.")
	WalksFailed         = counter("octopus_walks_failed_total", "Random walks that died en route.")
	SurveillanceChecks  = counter("octopus_surveillance_checks_total", "Secret neighbor/finger surveillance checks run.")
	DoSReports          = counter("octopus_dos_reports_total", "Selective-DoS reports sent to the CA.")
)

// Membership (per node, labeled by event kind).
var MembershipEvents = counter("octopus_membership_events_total", "Membership events observed, labeled by event (announce, revocation, join_admitted, join_rejected, leave, neighbor_dropped).")

// Routing tier (per node, labeled by tier: finger, onehop).
var (
	TierEntries          = gauge("octopus_tier_entries", "Routing entries the tier currently holds, labeled by tier.")
	TierEvents           = counter("octopus_tier_events_total", "Membership events the tier applied to its table, labeled by tier.")
	TierMaintenanceBytes = counter("octopus_tier_maintenance_bytes_total", "Tier maintenance traffic in codec bytes, labeled by tier and direction (sent, received).")
	TierMaintenanceMsgs  = counter("octopus_tier_maintenance_msgs_total", "Tier maintenance messages, labeled by tier and direction (sent, received).")
	TierStaleness        = gauge("octopus_tier_staleness_seconds", "Age of the tier's oldest unpropagated membership event, labeled by tier.")
)

// LookupService (per gateway node).
var (
	ServiceSubmitted = counter("octopus_service_lookups_submitted_total", "Client lookups accepted into the service queue.")
	ServiceCompleted = counter("octopus_service_lookups_completed_total", "Client lookups completed successfully.")
	ServiceFailed    = counter("octopus_service_lookups_failed_total", "Client lookups that failed after being accepted.")
	ServiceRejected  = counter("octopus_service_rejected_total", "Client lookups refused, labeled by reason (queue, client).")
	ServiceActive    = gauge("octopus_service_active_lookups", "Client lookups executing right now.")
	ServiceQueued    = gauge("octopus_service_queued_lookups", "Client lookups waiting in the queue.")
	ServiceWait      = histogram("octopus_service_wait_seconds", "Queue wait between submission and execution start.")
)

// Replicated store (per node).
var (
	StorePuts           = counter("octopus_store_puts_total", "Put operations initiated by this node.")
	StorePutFailures    = counter("octopus_store_put_failures_total", "Put operations that failed.")
	StoreGets           = counter("octopus_store_gets_total", "Get operations initiated by this node.")
	StoreHits           = counter("octopus_store_hits_total", "Gets that found the key.")
	StoreMisses         = counter("octopus_store_misses_total", "Gets that found nothing.")
	StorePutLatency     = histogram("octopus_store_put_seconds", "Client-facing Put latency at the serving gateway.")
	StoreGetLatency     = histogram("octopus_store_get_seconds", "Client-facing Get latency at the serving gateway.")
	StoreReplicaBatches = counter("octopus_store_replica_batches_total", "Replication batches shipped to successors.")
	StoreReplicaEntries = counter("octopus_store_replica_entries_total", "Entries shipped in replication batches.")
	StorePulledEntries  = counter("octopus_store_pulled_entries_total", "Entries pulled when taking over a key range.")
	StoreHandoffEntries = counter("octopus_store_handoff_entries_total", "Entries handed off on graceful leave.")
	StoreStoresServed   = counter("octopus_store_stores_served_total", "Replica store requests served for peers.")
	StoreFetchesServed  = counter("octopus_store_fetches_served_total", "Fetch requests served for peers.")
	StoreKeys           = gauge("octopus_store_keys", "Keys currently held by this node.")
)

// Transport backends (labeled by backend; codec bytes only, framing
// overhead tracked separately by the socket backend's frame counters).
var (
	TransportBytesSent      = counter("octopus_transport_bytes_sent_total", "Codec bytes sent, labeled by backend.")
	TransportBytesReceived  = counter("octopus_transport_bytes_received_total", "Codec bytes received, labeled by backend.")
	TransportMsgsSent       = counter("octopus_transport_msgs_sent_total", "Messages sent, labeled by backend.")
	TransportMsgsReceived   = counter("octopus_transport_msgs_received_total", "Messages received, labeled by backend.")
	TransportFrames         = counter("octopus_transport_frames_total", "Frames, labeled by backend and direction (in, out); a frame between two of a process's own slots counts both ways without a socket.")
	TransportSendDrops      = counter("octopus_transport_send_drops_total", "Outbound frames dropped before the wire (unreachable peer, full queue).")
	TransportDials          = counter("octopus_transport_dials_total", "Completed outbound connection attempts.")
	TransportCodecErrors    = counter("octopus_transport_codec_errors_total", "Messages that failed to encode or decode.")
	TransportProtocolErrors = counter("octopus_transport_protocol_errors_total", "Malformed frames and misaddressed traffic.")
	SimnetDropped           = counter("octopus_simnet_dropped_total", "Messages dropped by the simulator's fault layer.")
)

// The tracer's own health.
var (
	TraceSpans        = gauge("octopus_trace_spans", "Spans currently buffered by the tracer.")
	TraceSpansDropped = counter("octopus_trace_spans_dropped_total", "Spans overwritten by the tracer's ring buffer.")
)
