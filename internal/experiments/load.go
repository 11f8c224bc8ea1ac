package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// The load experiment goes beyond the paper's evaluation (§6 measures one
// lookup at a time): it drives a serving deployment — LookupService nodes
// answering client lookups — with an open-loop Poisson arrival process and
// measures the throughput ceiling and client-observed latency percentiles
// as a function of α (Config.LookupParallelism) and the managed relay-pair
// pool. Arrivals are open-loop on purpose: a closed loop would slow its
// own offered load down when the system saturates, hiding the ceiling.
// Everything runs on the deterministic simulator, so a (seed, config) pair
// always reproduces the same numbers — which is what lets TestSeededDigests
// pin them.

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// N is the ring size (+1 slot for the CA).
	N int
	// ServingNodes is how many nodes host a LookupService; arrivals are
	// spread across them uniformly.
	ServingNodes int
	// Clients is the number of distinct client labels (per-client quotas
	// apply per label).
	Clients int
	// Rate is the offered load in lookups per second across the whole
	// deployment. Open loop: arrivals do not wait for completions.
	Rate float64
	// Duration is the measured arrival window; completions are drained
	// afterwards.
	Duration time.Duration
	// WarmUp precedes the window so walks can stock relay pools.
	WarmUp time.Duration

	// Tier is Config.RoutingTier: core.TierFinger (default, the paper's
	// O(log n) tables) or core.TierOneHop (full tables, one confirming
	// query per lookup). The tier is the dominant latency axis at scale —
	// it sets how many sequential anonymous round trips a lookup needs.
	Tier string
	// Alpha is Config.LookupParallelism; Pool is Config.PairPoolTarget.
	Alpha, Pool int
	// CacheSize/CacheTTL are Config.LookupCacheSize/LookupCacheTTL on the
	// serving nodes; CacheSize zero runs every lookup end to end.
	CacheSize int
	CacheTTL  time.Duration
	// Workers/Queue/PerClient bound each node's LookupService.
	Workers, Queue, PerClient int

	// HotKeys and HotFraction shape the key popularity: each arrival
	// targets one of HotKeys fixed keys with probability HotFraction and a
	// uniformly random key otherwise. Client workloads are never uniform —
	// popular content dominates — and the skew is what lookup-result
	// caching converts into throughput. HotKeys zero keeps the old fully
	// uniform draw.
	HotKeys     int
	HotFraction float64

	// Seed drives all randomness.
	Seed int64

	// Collector, when non-nil, has every node registered with it after the
	// run so the caller can export a metrics snapshot (the nightly one-hop
	// load job uploads one). Registration is passthrough — it draws no
	// randomness and schedules nothing — so a run with a Collector replays
	// byte-identically to one without.
	Collector *obs.Collector
}

// DefaultLoadConfig is the serving-path configuration: α = 3, managed
// pool, 8 workers per serving node.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		N:            150,
		ServingNodes: 4,
		Clients:      16,
		Rate:         24,
		Duration:     2 * time.Minute,
		WarmUp:       time.Minute,
		Alpha:        3,
		Pool:         16,
		CacheSize:    256,
		CacheTTL:     60 * time.Second,
		Workers:      8,
		Queue:        64,
		PerClient:    64,
		HotKeys:      16,
		HotFraction:  0.8,
		Seed:         1,
	}
}

// SequentialLoadConfig is the same offered load served the way the paper's
// evaluation runs lookups: one at a time (one worker, α = 1) with the
// passive walk-timer pool and no result caching — the pre-concurrency
// baseline. The key popularity is identical to DefaultLoadConfig so the two
// runs are comparable.
func SequentialLoadConfig() LoadConfig {
	cfg := DefaultLoadConfig()
	cfg.Alpha = 1
	cfg.Pool = 0
	cfg.CacheSize = 0
	cfg.Workers = 1
	return cfg
}

// LoadResult summarizes one load run.
type LoadResult struct {
	// Offered counts arrivals; Completed/Failed/Rejected partition their
	// outcomes (Rejected = backpressure, queue or per-client).
	Offered, Completed, Failed, Rejected int
	// Throughput is completed lookups per second of the arrival window.
	Throughput float64
	// P50/P95/P99 are client-observed latency percentiles (queue wait +
	// lookup) over completed lookups.
	P50, P95, P99 time.Duration
	// MeanWait is the mean queue wait of completed lookups.
	MeanWait time.Duration
	// FallbackPairs counts degraded (finger-synthesized) relay pairs used
	// by the serving nodes — the anonymity cost of an understocked pool.
	FallbackPairs uint64
	// RefillWalks counts walk-ahead refills the managed pools launched.
	RefillWalks uint64
	// CacheHits counts lookups the serving nodes answered from the
	// lookup-result cache (zero when CacheSize is zero).
	CacheHits uint64
	// TierMaintBytes is the routing tier's own maintenance traffic summed
	// over every node and both directions (zero for the finger tier, whose
	// upkeep rides the chord protocols).
	TierMaintBytes uint64
}

// RunLoad executes one load experiment.
func RunLoad(cfg LoadConfig) LoadResult {
	coreCfg := core.DefaultConfig()
	coreCfg.RoutingTier = cfg.Tier
	coreCfg.EstimatedSize = cfg.N
	coreCfg.LookupParallelism = cfg.Alpha
	coreCfg.PairPoolTarget = cfg.Pool
	coreCfg.LookupCacheSize = cfg.CacheSize
	coreCfg.LookupCacheTTL = cfg.CacheTTL
	sim, _, nw := deploy(cfg.Seed, king.New(cfg.Seed), cfg.N, coreCfg)
	sim.Run(cfg.WarmUp)

	services := make([]*core.LookupService, cfg.ServingNodes)
	for i := range services {
		services[i] = core.NewLookupService(nw.Node(simnet.Address(i)), core.ServiceConfig{
			Workers:   cfg.Workers,
			Queue:     cfg.Queue,
			PerClient: cfg.PerClient,
		})
	}

	var res LoadResult
	lat := &metrics.Sample{}
	var waitTotal time.Duration
	record := func(sr core.ServiceResult) {
		switch sr.Err {
		case nil:
			res.Completed++
			lat.AddDuration(sr.Wait + sr.Stats.Latency())
			waitTotal += sr.Wait
		case core.ErrServiceBusy, core.ErrClientBusy:
			res.Rejected++
		default:
			res.Failed++
		}
	}

	// The popular-content key set, fixed for the whole run (its own source
	// so changing HotKeys does not perturb the arrival stream's draws).
	hot := make([]id.ID, cfg.HotKeys)
	hotRng := rand.New(rand.NewSource(cfg.Seed + 404))
	for i := range hot {
		hot[i] = id.ID(hotRng.Uint64())
	}

	// Arrivals go to a uniformly random serving node under a uniformly
	// random client label. Keys follow the HotKeys/HotFraction popularity
	// skew.
	end := sim.Now() + cfg.Duration
	poisson(sim, rand.New(rand.NewSource(cfg.Seed+101)), cfg.Rate, until(sim, end), func(rng *rand.Rand) {
		res.Offered++
		svc := services[rng.Intn(len(services))]
		client := fmt.Sprintf("c%02d", rng.Intn(cfg.Clients))
		key := id.ID(rng.Uint64())
		if len(hot) > 0 && rng.Float64() < cfg.HotFraction {
			key = hot[rng.Intn(len(hot))]
		}
		svc.Enqueue(client, key, record)
	})
	sim.Run(end)
	// Drain: everything queued or in flight completes or times out.
	sim.Run(end + 2*time.Minute)

	res.Throughput = float64(res.Completed) / cfg.Duration.Seconds()
	res.P50 = time.Duration(lat.Percentile(50) * float64(time.Second))
	res.P95 = time.Duration(lat.Percentile(95) * float64(time.Second))
	res.P99 = time.Duration(lat.Percentile(99) * float64(time.Second))
	if res.Completed > 0 {
		res.MeanWait = waitTotal / time.Duration(res.Completed)
	}
	// Aggregate the pool/cache counters through the unified obs surface —
	// the very snapshots a production deployment exports — instead of the
	// bespoke per-node accessors. The simulation is quiescent here, so
	// collecting outside the sim context is safe.
	c := obs.NewCollector()
	for i := 0; i < cfg.ServingNodes; i++ {
		c.Register(nw.Node(simnet.Address(i)))
	}
	snap := c.Snapshot()
	res.FallbackPairs = uint64(snap.CounterSum(obs.PoolFallbackPairs))
	res.RefillWalks = uint64(snap.CounterSum(obs.PoolRefillWalks))
	res.CacheHits = uint64(snap.CounterSum(obs.LookupCacheHits))
	// Maintenance traffic is ring-wide, not a serving-node property: every
	// node pays the tier's dissemination cost.
	for i := 0; i < cfg.N; i++ {
		if node := nw.Node(simnet.Address(i)); node != nil {
			ts := node.Tier().Stats()
			res.TierMaintBytes += ts.BytesSent + ts.BytesReceived
		}
	}
	if cfg.Collector != nil {
		for i := 0; i < cfg.N; i++ {
			if node := nw.Node(simnet.Address(i)); node != nil {
				cfg.Collector.Register(node)
			}
		}
	}
	return res
}
