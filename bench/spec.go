package main

// This file is the benchmark's vocabulary: workload names, metric names,
// units, directions and regression bounds. BENCHMARK.json at the repository
// root repeats the contract subset (TestBenchmarkJSONMatchesSpec keeps the
// two in step); README.md explains every entry.

// Workload names.
const (
	wlUniform = "tcp-lookup-uniform"
	wlHot     = "tcp-lookup-hot"
	wlStore   = "tcp-store-mix"
	wlSim     = "sim-load-1k"
)

// workload describes one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
}

var workloads = []workload{
	{wlUniform, "never-repeating keys through two real octopusd processes: every op pays relay-pair walks, signed-table queries, codec and TCP framing; the result cache is bypassed"},
	{wlHot, "80% of lookups on 16 fixed keys: the result cache, LookupService and the client path do the work, walks do little; the counterpart to tcp-lookup-uniform"},
	{wlStore, "20% Put / 80% Get of 256-byte values on 64 keys: cached owner resolution, anonymous RPC delivery, owner versioning and replica fan-out; writes beside reads"},
	{wlSim, "in-process deterministic simulator, 1000 nodes, open-loop lookups on 8 serving nodes: host time per simulated event with no sockets, which bounds every experiment in the repo"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricDef names one metric. Better is "lower" or "higher". The rest
// applies to end-to-end metrics only: Bound is the relative worsening that
// counts as a regression, Absolute marks a bound that is a difference, not a
// ratio, and Contract marks the metrics BENCHMARK.json gates.
type metricDef struct {
	Name     string
	Unit     string
	Better   string
	Bound    float64
	Absolute bool
	Contract bool
}

// endToEnd lists every end-to-end metric the report prints. The ones with
// Contract set apply to all four workloads and are never zero, so they are
// the set BENCHMARK.json gates; the rest are printed where they apply.
//
// Bounds: the issue asked for 0.05 on throughput, latency and bytes and
// 0.10-0.15 on CPU and memory, with a 40 s window. The driver's time cap (92
// runs inside 57 minutes) leaves a 12 s window, where the quartile spread
// over ten seeds measured 0.03-0.07 on throughput, 0.01-0.04 on the tcp p95
// and 0.03-0.10 on the simulated one (480 lookups, 24 beyond p95), 0.04-0.08
// on bytes, 0.05 on memory, 0.06-0.17 on CPU (which drifts with the host, not
// the seed). The bounds are those spreads times two to three, capped at the
// contract's 0.25. lat_p50_ms is not gated because it is not reported on
// tcp-lookup-hot (see tcpObservation.result); a slower median on the other
// workloads shows in ops_per_s, which a closed loop ties to mean latency.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15, Contract: true},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.20, Contract: true},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Contract: true},
	{Name: "fail_frac", Unit: "frac", Better: "lower", Bound: 0.005, Absolute: true},
	{Name: "sim_wall_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// perLayer lists the per-layer metrics of the traced run, grouped by the
// module they measure. A metric that does not apply to a workload is
// omitted from the text report and reads 0 in the contract output.
var perLayer = []metricDef{
	// bench client spans
	{Name: "client.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.hit_rtt_us_p50", Unit: "us", Better: "lower"},
	// core service (response fields)
	{Name: "core.service.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.service.wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.service.busy_frac", Unit: "frac", Better: "lower"},
	// core lookup (response fields, /trace spans)
	{Name: "core.lookup.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.lookup.queries_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lookup.dummies_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lookup.pairs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lookup.rejected_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lookup.span_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.relay.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.relay.hop_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.relay.forwards_per_op", Unit: "count", Better: "lower"},
	// core walk / pair pool (delta of /metrics)
	{Name: "core.walk.started_per_op", Unit: "count", Better: "lower"},
	{Name: "core.walk.failed_frac", Unit: "frac", Better: "lower"},
	{Name: "core.pool.refill_walks_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pool.discarded_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pool.fallback_frac", Unit: "frac", Better: "lower"},
	{Name: "core.pool.pairs_min", Unit: "count", Better: "higher"},
	// core cache
	{Name: "core.cache.hit_frac", Unit: "frac", Better: "higher"},
	{Name: "core.cache.flushes", Unit: "count", Better: "lower"},
	// core surveillance / background
	{Name: "core.surveil.checks_per_s", Unit: "1/s", Better: "lower"},
	{Name: "daemon.idle_cpu_cores", Unit: "cores", Better: "lower"},
	// store
	{Name: "store.put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.get_tried_mean", Unit: "count", Better: "lower"},
	{Name: "store.replica_entries_per_put", Unit: "count", Better: "lower"},
	{Name: "store.hit_frac", Unit: "frac", Better: "higher"},
	// nettransport / transport counters (delta of /metrics)
	{Name: "nettransport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "nettransport.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "nettransport.dials", Unit: "count", Better: "lower"},
	{Name: "nettransport.send_drops", Unit: "count", Better: "lower"},
	{Name: "transport.codec_errors", Unit: "count", Better: "lower"},
	// layer probes, reported with tcp-lookup-uniform
	{Name: "xcrypto.sim_sign_us", Unit: "us", Better: "lower"},
	{Name: "xcrypto.sim_verify_us", Unit: "us", Better: "lower"},
	{Name: "xcrypto.ecdsa_sign_us", Unit: "us", Better: "lower"},
	{Name: "xcrypto.ecdsa_verify_us", Unit: "us", Better: "lower"},
	{Name: "xcrypto.cert_verify_us", Unit: "us", Better: "lower"},
	{Name: "xcrypto.onion_build_us", Unit: "us", Better: "lower"},
	{Name: "xcrypto.onion_peel_us", Unit: "us", Better: "lower"},
	{Name: "transport.encode_table_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_table_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_table_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.size_table_ns", Unit: "ns", Better: "lower"},
	{Name: "nettransport.rpc_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "nettransport.rpc_allocs", Unit: "count", Better: "lower"},
	{Name: "nettransport.rpc_pipelined_per_s", Unit: "1/s", Better: "higher"},
	{Name: "nettransport.client_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "chantransport.rpc_rtt_us_p50", Unit: "us", Better: "lower"},
	// layer probes, reported with sim-load-1k
	{Name: "simnet.bare_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "simnet.bare_allocs_per_event", Unit: "count", Better: "lower"},
	// simulator run
	{Name: "simnet.events", Unit: "count", Better: "lower"},
	{Name: "simnet.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "simnet.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "simnet.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "sim.completed", Unit: "count", Better: "higher"},
	{Name: "sim.lookup_p50_s", Unit: "s", Better: "lower"},
	{Name: "sim.lookup_p95_s", Unit: "s", Better: "lower"},
	{Name: "sim.bytes_per_lookup", Unit: "B", Better: "lower"},
	// simulator run, decorator self times (traced run only)
	{Name: "chord.handler_s", Unit: "s", Better: "lower"},
	{Name: "core.handler_s", Unit: "s", Better: "lower"},
	{Name: "store.handler_s", Unit: "s", Better: "lower"},
	{Name: "proto.callback_s", Unit: "s", Better: "lower"},
	{Name: "proto.timer_s", Unit: "s", Better: "lower"},
	{Name: "simnet.self_s", Unit: "s", Better: "lower"},
	{Name: "chord.msgs", Unit: "count", Better: "lower"},
	{Name: "core.walk_msgs", Unit: "count", Better: "lower"},
	{Name: "core.relay_msgs", Unit: "count", Better: "lower"},
	// traced / untraced - 1, on ops_per_s
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
}
