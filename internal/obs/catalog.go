package obs

import (
	"fmt"
	"strings"
)

// MetricDef is one catalog entry: every metric the system exports must be
// registered here. The exporter takes HELP text from it, and
// tools/metriclint fails CI when an emitted name is missing from the
// catalog or breaks the naming conventions (octopus_ prefix, snake_case,
// counters end in _total, histograms carry a unit suffix).
type MetricDef struct {
	Name string
	Type string // "counter", "gauge", or "histogram"
	Help string
}

// Catalog is the authoritative list of exported metrics. Keep it sorted by
// name within each section; DEPLOYMENT.md's metric table mirrors it.
var Catalog = []MetricDef{
	// Anonymous lookups and the relay-pair machinery (per node).
	{"octopus_lookups_started_total", "counter", "Anonymous lookups started by this node."},
	{"octopus_lookups_completed_total", "counter", "Anonymous lookups that returned a result."},
	{"octopus_lookups_failed_total", "counter", "Anonymous lookups that exhausted their query budget."},
	{"octopus_lookup_queries_total", "counter", "Anonymous queries sent over relay pairs."},
	{"octopus_lookup_dummies_total", "counter", "Dummy (cover-traffic) queries sent."},
	{"octopus_lookup_latency_seconds", "histogram", "End-to-end anonymous lookup latency at the initiator."},
	{"octopus_lookup_cache_hits_total", "counter", "Lookup-result cache hits."},
	{"octopus_lookup_cache_misses_total", "counter", "Lookup-result cache misses."},
	{"octopus_lookup_cache_flushes_total", "counter", "Whole-cache invalidations from membership events."},
	{"octopus_pool_pairs", "gauge", "Relay pairs currently available in the managed pool."},
	{"octopus_pool_fallback_pairs_total", "counter", "Lookups that built a relay pair on demand because the pool was empty."},
	{"octopus_pool_refill_walks_total", "counter", "Walks launched by the pool's walk-ahead refill."},
	{"octopus_pool_pairs_discarded_total", "counter", "Pooled pairs dropped by freshness/liveness vetting."},
	{"octopus_relay_forwards_total", "counter", "Anonymous queries this node forwarded as a relay."},
	{"octopus_relay_replies_total", "counter", "Anonymous replies this node carried back as a relay."},
	{"octopus_relay_state_evictions_total", "counter", "Per-query relay state (reverse routes, tombstones, receipts, witness statements) retired early because a table was full: is someone exhausting my relay state?"},
	{"octopus_walks_started_total", "counter", "Random walks started (relay-pair discovery)."},
	{"octopus_walks_completed_total", "counter", "Random walks that produced a relay pair."},
	{"octopus_walks_failed_total", "counter", "Random walks that died en route."},
	{"octopus_surveillance_checks_total", "counter", "Secret neighbor/finger surveillance checks run."},
	{"octopus_dos_reports_total", "counter", "Selective-DoS reports sent to the CA."},

	// Membership (per node, labeled by event kind).
	{"octopus_membership_events_total", "counter", "Membership events observed, labeled by event (announce, revocation, join_admitted, join_rejected, leave, neighbor_dropped)."},

	// Routing tier (per node, labeled by tier: finger, onehop).
	{"octopus_tier_entries", "gauge", "Routing entries the tier currently holds, labeled by tier."},
	{"octopus_tier_events_total", "counter", "Membership events the tier applied to its table, labeled by tier."},
	{"octopus_tier_maintenance_bytes_total", "counter", "Tier maintenance traffic in codec bytes, labeled by tier and direction (sent, received)."},
	{"octopus_tier_maintenance_msgs_total", "counter", "Tier maintenance messages, labeled by tier and direction (sent, received)."},
	{"octopus_tier_staleness_seconds", "gauge", "Age of the tier's oldest unpropagated membership event, labeled by tier."},

	// LookupService (per gateway node).
	{"octopus_service_lookups_submitted_total", "counter", "Client lookups accepted into the service queue."},
	{"octopus_service_lookups_completed_total", "counter", "Client lookups completed successfully."},
	{"octopus_service_lookups_failed_total", "counter", "Client lookups that failed after being accepted."},
	{"octopus_service_rejected_total", "counter", "Client lookups refused, labeled by reason (queue, client)."},
	{"octopus_service_active_lookups", "gauge", "Client lookups executing right now."},
	{"octopus_service_queued_lookups", "gauge", "Client lookups waiting in the queue."},
	{"octopus_service_wait_seconds", "histogram", "Queue wait between submission and execution start."},

	// Replicated store (per node).
	{"octopus_store_puts_total", "counter", "Put operations initiated by this node."},
	{"octopus_store_put_failures_total", "counter", "Put operations that failed."},
	{"octopus_store_gets_total", "counter", "Get operations initiated by this node."},
	{"octopus_store_hits_total", "counter", "Gets that found the key."},
	{"octopus_store_misses_total", "counter", "Gets that found nothing."},
	{"octopus_store_put_seconds", "histogram", "Client-facing Put latency at the serving gateway."},
	{"octopus_store_get_seconds", "histogram", "Client-facing Get latency at the serving gateway."},
	{"octopus_store_replica_batches_total", "counter", "Replication batches shipped to successors."},
	{"octopus_store_replica_entries_total", "counter", "Entries shipped in replication batches."},
	{"octopus_store_pulled_entries_total", "counter", "Entries pulled when taking over a key range."},
	{"octopus_store_handoff_entries_total", "counter", "Entries handed off on graceful leave."},
	{"octopus_store_stores_served_total", "counter", "Replica store requests served for peers."},
	{"octopus_store_fetches_served_total", "counter", "Fetch requests served for peers."},
	{"octopus_store_keys", "gauge", "Keys currently held by this node."},

	// Transport backends (labeled by backend; codec bytes only, framing
	// overhead tracked separately by the socket backend's frame counters).
	{"octopus_transport_bytes_sent_total", "counter", "Codec bytes sent, labeled by backend."},
	{"octopus_transport_bytes_received_total", "counter", "Codec bytes received, labeled by backend."},
	{"octopus_transport_msgs_sent_total", "counter", "Messages sent, labeled by backend."},
	{"octopus_transport_msgs_received_total", "counter", "Messages received, labeled by backend."},
	{"octopus_transport_frames_total", "counter", "Wire frames, labeled by backend and direction (in, out)."},
	{"octopus_transport_send_drops_total", "counter", "Outbound frames dropped before the wire (unreachable peer, full queue)."},
	{"octopus_transport_dials_total", "counter", "Completed outbound connection attempts."},
	{"octopus_transport_codec_errors_total", "counter", "Messages that failed to encode or decode."},
	{"octopus_transport_protocol_errors_total", "counter", "Malformed frames and misaddressed traffic."},
	{"octopus_simnet_dropped_total", "counter", "Messages dropped by the simulator's fault layer."},

	// The tracer's own health.
	{"octopus_trace_spans", "gauge", "Spans currently buffered by the tracer."},
	{"octopus_trace_spans_dropped_total", "counter", "Spans overwritten by the tracer's ring buffer."},
}

// LookupMetric returns the catalog entry for a metric name.
func LookupMetric(name string) (MetricDef, bool) {
	for _, d := range Catalog {
		if d.Name == name {
			return d, true
		}
	}
	return MetricDef{}, false
}

// ValidateName checks a metric name against the naming conventions for its
// type. Used by metriclint and the catalog self-test.
func ValidateName(name, typ string) error {
	if !strings.HasPrefix(name, "octopus_") {
		return fmt.Errorf("%s: missing octopus_ prefix", name)
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return fmt.Errorf("%s: character %q outside [a-z0-9_]", name, r)
		}
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("%s: counter must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("%s: gauge must not end in _total", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			return fmt.Errorf("%s: histogram must carry a unit suffix (_seconds or _bytes)", name)
		}
	default:
		return fmt.Errorf("%s: unknown metric type %q", name, typ)
	}
	return nil
}

// ValidateCatalog checks every catalog entry and rejects duplicates.
func ValidateCatalog() error {
	seen := map[string]bool{}
	for _, d := range Catalog {
		if seen[d.Name] {
			return fmt.Errorf("%s: duplicate catalog entry", d.Name)
		}
		seen[d.Name] = true
		if err := ValidateName(d.Name, d.Type); err != nil {
			return err
		}
		if d.Help == "" {
			return fmt.Errorf("%s: missing help text", d.Name)
		}
	}
	return nil
}

// ValidateSnapshot reports every metric in the snapshot whose name is not
// registered in the catalog or whose shape disagrees with the registered
// type. A live collector's snapshot must validate cleanly — the obs test
// suite and the e2e scrape both enforce it.
func ValidateSnapshot(s *Snapshot) []error {
	var errs []error
	check := func(name, typ string) {
		def, ok := LookupMetric(name)
		if !ok {
			errs = append(errs, fmt.Errorf("%s: not registered in obs.Catalog", name))
			return
		}
		if def.Type != typ {
			errs = append(errs, fmt.Errorf("%s: emitted as %s, registered as %s", name, typ, def.Type))
		}
	}
	for _, c := range s.Counters {
		check(c.Name, "counter")
	}
	for _, g := range s.Gauges {
		check(g.Name, "gauge")
	}
	for _, h := range s.Histograms {
		check(h.Name, "histogram")
	}
	return errs
}
