// Package core implements Octopus itself — the paper's primary contribution.
//
// An Octopus node is a Chord participant (internal/chord) extended with:
//
//   - two-phase random walks that select anonymization relay pairs
//     (Appendix I);
//   - onion-modelled anonymous paths I → A → B → (Ci, Di) → Ei over which
//     every query of a lookup travels separately (§4.1–4.2, Fig. 1);
//   - anonymous lookups that fetch whole signed routing tables (fingers +
//     successor list) so the key is never revealed, split each query over a
//     fresh relay pair, and interleave dummy queries (§4.2–4.3);
//   - secret neighbor surveillance, secret finger surveillance, and secure
//     finger updates (§4.3–4.5);
//   - the CA protocol that turns surveillance reports into revocations via
//     proof-chain investigations (§4.6, Fig. 2), plus the selective-DoS
//     witness/receipt defense (Appendix II).
//
// The package speaks exclusively through transport.Transport: the same
// state machines run deterministically on internal/simnet and concurrently
// on internal/transport/nettransport, in one process or across many (see
// README.md for the substitution notes on the signature scheme and latency
// model).
package core

import (
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
)

// Config carries every Octopus protocol parameter. Defaults follow §5.1.
type Config struct {
	// Chord configures the underlying routing layer. Octopus requires
	// signed, timestamped tables, which a chord node publishes once it
	// holds an identity.
	Chord chord.Config
	// WalkLength is l, the number of hops per random-walk phase
	// (Appendix I); the full walk visits 2l nodes.
	WalkLength int
	// WalkEvery is the period of relay-selection random walks (15 s).
	WalkEvery time.Duration
	// SurveilEvery is the period of both secret surveillance checks
	// (60 s).
	SurveilEvery time.Duration
	// Dummies is the number of dummy queries interleaved into each
	// anonymous lookup (§4.2; the anonymity evaluation uses 2 and 6).
	Dummies int
	// QueryTimeout bounds one anonymous query round trip.
	QueryTimeout time.Duration
	// RelayDelayMax is the maximum random delay added by the second
	// relay B to frustrate timing analysis (§4.7: up to 100 ms).
	RelayDelayMax time.Duration
	// MaxLookupQueries aborts anonymous lookups that stop converging.
	MaxLookupQueries int
	// LookupParallelism is α, the number of table queries one lookup keeps
	// in flight (Kademlia-style iterative parallelism). At α = 1 the
	// engine degenerates to the paper's strictly sequential lookup — the
	// experiments pin 1 to stay faithful to §6's one-query-at-a-time
	// measurements — while a serving deployment overlaps queries to hide
	// per-hop latency. Zero means 1.
	LookupParallelism int
	// PairPoolTarget, when positive, turns the relay-pair pool into a
	// managed stock: background walks are launched on demand to keep at
	// least this many pre-built pairs ready, and pairs are vetted for
	// freshness (5 minutes) and member liveness before being handed out.
	// Zero keeps the paper's passive pool (stocked only by the WalkEvery
	// timer, no vetting) — required for bit-identical seeded experiment
	// runs.
	PairPoolTarget int
	// StoreReplicas is the total number of copies the key-value store
	// (internal/store) keeps of every entry: the owner plus StoreReplicas-1
	// successors. Zero means 3. The lookup layer itself never reads it; it
	// lives here so one Config describes a whole deployment.
	StoreReplicas int
	// DoSDefense arms the Appendix II dropped-query reporting: a query
	// that times out while all four path relays answer pings is reported
	// to the CA for a receipt-trail investigation.
	DoSDefense bool
	// LookupCacheSize bounds the cache of successful anonymous-lookup
	// results (owner + successor-list evidence, keyed by target ID) that
	// AnonLookupFull consults before spending relay pairs. Zero disables
	// caching entirely — required for bit-identical seeded paper runs,
	// which must issue every query (see paperCoreConfig).
	LookupCacheSize int
	// LookupCacheTTL bounds how long a cached lookup result may be served.
	// Zero means 60 s (when the cache is enabled at all). The cache is
	// additionally flushed on every membership event the node observes.
	LookupCacheTTL time.Duration
	// EstimatedSize is the node's estimate of the network size, feeding
	// the NISAN-style bound checker used on walk and lookup tables.
	EstimatedSize int
	// BoundFactor scales the bound checker's acceptance window.
	BoundFactor float64

	// RoutingTier selects the routing state lookups converge over:
	// TierFinger (the paper's finger table + successor list, the
	// default — empty string means the same) or TierOneHop (full
	// routing tables with D1HT-style aggregated event dissemination;
	// post-walk convergence then needs a single query).
	RoutingTier string
	// TierMaintainEvery is the one-hop tier's event-aggregation tick:
	// buffered membership events are flushed to exponentially spaced
	// peers at this cadence. Zero means 1 s. Ignored by the finger tier.
	TierMaintainEvery time.Duration
}

// Routing tier names for Config.RoutingTier.
const (
	// TierFinger is the paper's O(log n) finger-table tier.
	TierFinger = "finger"
	// TierOneHop is the D1HT-style full-routing-state tier.
	TierOneHop = "onehop"
)

// DefaultConfig returns the paper's §5.1 parameters.
func DefaultConfig() Config {
	return Config{
		Chord:             chord.DefaultConfig(),
		WalkLength:        3,
		WalkEvery:         15 * time.Second,
		SurveilEvery:      60 * time.Second,
		Dummies:           6,
		QueryTimeout:      4 * time.Second,
		RelayDelayMax:     100 * time.Millisecond,
		MaxLookupQueries:  64,
		LookupParallelism: 3,
		PairPoolTarget:    16,
		LookupCacheSize:   256,
		LookupCacheTTL:    60 * time.Second,
		StoreReplicas:     3,
		EstimatedSize:     1000,
		BoundFactor:       8,
	}
}
