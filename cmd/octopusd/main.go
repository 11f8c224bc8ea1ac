// Command octopusd runs one process's slice of a multi-process Octopus
// ring over real TCP sockets (internal/transport/nettransport). This file
// is the flag surface; the process lifecycle is internal/daemon.
//
// Every process of a deployment is started from the same ring configuration
// file — an endpoint table assigning each node slot (and the CA) to a TCP
// endpoint, plus the shared seed — and a -listen flag naming which endpoint
// this process serves. The bootstrap is deterministic: all processes derive
// the identical ring identifiers, key material, and initial routing state
// from the shared seed, so no state is exchanged at startup; everything
// after that (stabilization, relay-selection walks, surveillance, anonymous
// lookups) is live protocol traffic over the sockets.
//
// Serve two processes on one machine (see docs/DEPLOYMENT.md for the full
// walkthrough, and examples/multiprocess for a scripted version):
//
//	octopusd -config ring.json -listen 127.0.0.1:9101
//	octopusd -config ring.json -listen 127.0.0.1:9102 -lookup my-key -once
//
// With -lookup, the daemon waits until its first node's relay pool is
// stocked, resolves the key anonymously, verifies the answer against the
// deterministic ground truth, and (with -once) exits 0 on success.
//
// With -metrics-listen, the daemon serves its instrumentation over HTTP:
// Prometheus text metrics on /metrics and the (redacted) span buffer on
// /trace. See docs/DEPLOYMENT.md's Monitoring section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/daemon"
)

// flagSection is one documented group in the -help output. Flags registered
// through the sectioned helpers below are attributed to the most recently
// opened section, in declaration order.
type flagSection struct {
	title string
	names []string
}

var flagSections []*flagSection

func section(title string) {
	flagSections = append(flagSections, &flagSection{title: title})
}

func noteFlag(name string) {
	if len(flagSections) == 0 {
		section("Options")
	}
	s := flagSections[len(flagSections)-1]
	s.names = append(s.names, name)
}

func strFlag(p *string, name, def, usage string) {
	flag.StringVar(p, name, def, usage)
	noteFlag(name)
}

func boolFlag(p *bool, name string, def bool, usage string) {
	flag.BoolVar(p, name, def, usage)
	noteFlag(name)
}

func intFlag(p *int, name string, def int, usage string) {
	flag.IntVar(p, name, def, usage)
	noteFlag(name)
}

func durFlag(p *time.Duration, name string, def time.Duration, usage string) {
	flag.DurationVar(p, name, def, usage)
	noteFlag(name)
}

// sectionedUsage renders -help grouped by the declared sections instead of
// one flat alphabetical list.
func sectionedUsage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "Usage:\n")
	fmt.Fprintf(w, "  octopusd -config ring.json -listen HOST:PORT [flags]   static deployment\n")
	fmt.Fprintf(w, "  octopusd -join HOST:PORT -listen HOST:PORT [flags]     join a live ring\n\n")
	for _, s := range flagSections {
		fmt.Fprintf(w, "%s:\n", s.title)
		for _, name := range s.names {
			f := flag.Lookup(name)
			if f == nil {
				continue
			}
			arg, usage := flag.UnquoteUsage(f)
			line := "  -" + f.Name
			if arg != "" {
				line += " " + arg
			}
			fmt.Fprintf(w, "%s\n    \t%s", line, usage)
			switch f.DefValue {
			case "", "0", "false", "0s":
				// zero defaults add noise, not information
			default:
				fmt.Fprintf(w, " (default %s)", f.DefValue)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

func main() {
	opts := daemon.Options{Cfg: core.DefaultConfig()}
	cfg := &opts.Cfg

	section("Deployment")
	strFlag(&opts.Config, "config", "", "ring configuration JSON (static deployment; mutually exclusive with -join)")
	strFlag(&opts.Join, "join", "", "TCP endpoint of any live daemon; join its ring dynamically instead of loading a config")
	strFlag(&opts.Listen, "listen", "", "TCP endpoint this process serves (required)")
	strFlag(&opts.IDName, "id", "", "with -join: derive the ring identifier from this string instead of random (testing)")

	section("Lookup verification")
	strFlag(&opts.LookupKey, "lookup", "", "after warm-up, anonymously resolve this key from the first local node")
	strFlag(&opts.ExpectID, "expect-id", "", "verify the -lookup against the owner identifier derived from this string (instead of the static ground truth), retrying until it matches")
	durFlag(&opts.LookupWait, "lookup-retry", 2*time.Minute, "with -expect-id: how long to keep retrying the lookup")
	boolFlag(&opts.Once, "once", false, "exit after the -lookup completes (0 on success)")
	intFlag(&opts.WarmPairs, "warm-pairs", 16, "relay pairs to stock before the -lookup starts")
	durFlag(&opts.WarmMax, "warm-timeout", 90*time.Second, "abort if the relay pool is not stocked in time")

	section("Protocol tuning")
	strFlag(&cfg.RoutingTier, "routing-tier", core.TierFinger, "routing tier: \"finger\" (the paper's O(log n) tables) or \"onehop\" (full tables, O(1) lookups, D1HT-style event dissemination)")
	durFlag(&cfg.TierMaintainEvery, "tier-maintain-every", time.Second, "one-hop tier event-flush period (EDRA tick)")
	durFlag(&cfg.WalkEvery, "walk-every", 500*time.Millisecond, "relay-selection random-walk period")
	durFlag(&cfg.Chord.StabilizeEvery, "stabilize-every", time.Second, "Chord stabilization period (also the neighbor-suspicion period)")
	durFlag(&cfg.SurveilEvery, "surveil-every", 15*time.Second, "secret surveillance period")
	durFlag(&cfg.Chord.FixFingersEvery, "fix-fingers-every", 10*time.Second, "secured finger-update period")
	durFlag(&cfg.Chord.RPCTimeout, "rpc-timeout", 2*time.Second, "per-RPC timeout")
	durFlag(&cfg.QueryTimeout, "query-timeout", 4*time.Second, "anonymous-query round-trip timeout")
	intFlag(&cfg.Dummies, "dummies", 6, "dummy queries per anonymous lookup")
	durFlag(&cfg.RelayDelayMax, "relay-delay-max", 50*time.Millisecond, "max artificial relay delay (timing defense)")
	intFlag(&cfg.LookupParallelism, "alpha", 3, "α: concurrent table queries per lookup (1 = the paper's sequential schedule)")
	intFlag(&cfg.PairPoolTarget, "pool-target", 16, "relay pairs the managed pool keeps pre-built (0 = passive WalkEvery-only pool)")
	intFlag(&cfg.LookupCacheSize, "cache-size", 256, "lookup-result cache entries per node (0 disables; membership events flush it)")
	durFlag(&cfg.LookupCacheTTL, "cache-ttl", 60*time.Second, "lookup-result cache entry lifetime")

	section("Client serving")
	boolFlag(&opts.ServeLookups, "serve-lookups", true, "serve ClientLookupReq (0x05xx) from external clients on the bootstrap channel")
	intFlag(&opts.ServeWorkers, "serve-workers", 8, "lookup-service worker slots (concurrent client lookups)")
	intFlag(&opts.ServeQueue, "serve-queue", 64, "lookup-service queue depth before clients see backpressure")
	intFlag(&opts.ServePer, "serve-per-client", 16, "queued+running lookups allowed per client IP")
	durFlag(&opts.ServeTO, "serve-timeout", 60*time.Second, "per-client-lookup service deadline")

	section("Storage")
	boolFlag(&opts.ServeStore, "serve-store", true, "run the replicated key-value store (0x06xx) and serve client Put/Get on the bootstrap channel")
	intFlag(&cfg.StoreReplicas, "store-replicas", 3, "total copies per stored entry (owner + successors)")
	durFlag(&opts.StoreSync, "store-sync-every", 5*time.Second, "re-replication sweep period")

	section("Observability")
	strFlag(&opts.MetricsListen, "metrics-listen", "", "serve Prometheus text metrics on http://ADDR/metrics and the span buffer on /trace")
	intFlag(&opts.TraceBuffer, "trace-buffer", 0, "per-hop span ring-buffer capacity (0 disables tracing)")
	durFlag(&opts.StatusEach, "status-every", 5*time.Second, "period of the status log line")

	flag.Usage = sectionedUsage
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if opts.Listen == "" || (opts.Config == "") == (opts.Join == "") {
		flag.Usage()
		os.Exit(2)
	}
	if cfg.RoutingTier != core.TierFinger && cfg.RoutingTier != core.TierOneHop {
		// Catch this at the flag boundary: core.New treats an unknown tier
		// as a programming error and panics.
		log.Fatalf("octopusd: -routing-tier %q: want %q or %q", cfg.RoutingTier, core.TierFinger, core.TierOneHop)
	}
	if opts.Join != "" && opts.LookupKey != "" && opts.ExpectID == "" {
		// Catch this before joining: a dynamically joined ring has no
		// deterministic ground truth, and failing after the join would
		// skip the graceful leave.
		log.Fatal("octopusd: -join with -lookup requires -expect-id (no deterministic ground truth in a joined ring)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, opts); err != nil {
		log.Fatalf("octopusd: %v", err)
	}
}
