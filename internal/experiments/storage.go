package experiments

import (
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
)

// The storage experiment drives the replicated key-value subsystem
// (internal/store) with an open-loop read/write mix under churn, on the
// deterministic simulator: Poisson arrivals pick a random gateway node and
// a random key from a working set, writes resolve the owner anonymously and
// replicate, reads try replicas in order, and a scripted churn schedule
// kills nodes mid-window (each replaced by an online rejoin that pulls its
// key range). The headline numbers — hit rate against the set of
// acknowledged writes, and client-observed latency percentiles — are
// deterministic per (seed, config), so TestSeededDigests pins them.

// StorageConfig parameterizes one storage run.
type StorageConfig struct {
	// N is the ring size (+1 slot for the CA).
	N int
	// ServingNodes is how many nodes act as client gateways; operations
	// are spread across them uniformly.
	ServingNodes int
	// Keys is the working-set size; every operation draws its key
	// uniformly from it.
	Keys int
	// Rate is the offered load in operations per second (open loop).
	Rate float64
	// ReadFraction is the probability an arrival is a Get.
	ReadFraction float64
	// Duration is the measured arrival window; WarmUp precedes it.
	Duration, WarmUp time.Duration
	// Tier is core.Config.RoutingTier (empty = finger). Writes resolve
	// owners anonymously, so the tier sets the write path's hop count.
	Tier string
	// Replicas is core.Config.StoreReplicas.
	Replicas int
	// SyncEvery is the stores' re-replication period.
	SyncEvery time.Duration
	// Kills is the number of nodes killed, evenly spaced across the
	// window. Each death is followed by an online rejoin (the PR 3
	// membership path) whose store pulls the range it now owns.
	Kills int
	// Seed drives all randomness.
	Seed int64
}

// DefaultStorageConfig is the headline configuration: a read-heavy mix with
// mid-run churn.
func DefaultStorageConfig() StorageConfig {
	return StorageConfig{
		N:            150,
		ServingNodes: 4,
		Keys:         48,
		Rate:         8,
		ReadFraction: 0.75,
		Duration:     2 * time.Minute,
		WarmUp:       time.Minute,
		Replicas:     3,
		SyncEvery:    10 * time.Second,
		Kills:        4,
		Seed:         1,
	}
}

// StorageResult summarizes one storage run.
type StorageResult struct {
	// Puts/PutOK partition write outcomes; Gets partition into Hits,
	// Misses (the key had an acknowledged write but no replica answered)
	// and Unwritten (reads of keys never yet written — correct negatives).
	Puts, PutOK        int
	Gets, Hits, Misses int
	Unwritten          int
	// HitRate is Hits / (Hits + Misses): the fraction of reads-of-written-
	// keys that found a copy.
	HitRate float64
	// Latency percentiles, client-observed per operation class.
	PutP50, PutP95, PutP99 time.Duration
	GetP50, GetP95, GetP99 time.Duration
	// Kills/Rejoins/Pulled describe the churn the run absorbed.
	Kills, Rejoins int
	Pulled         uint64
	// ReplicaEntries counts entries accepted by replicas (fan-out, sync,
	// and handover combined).
	ReplicaEntries uint64
}

// RunStorage executes one storage experiment.
func RunStorage(cfg StorageConfig) StorageResult {
	coreCfg := core.DefaultConfig()
	coreCfg.RoutingTier = cfg.Tier
	coreCfg.EstimatedSize = cfg.N
	coreCfg.StoreReplicas = cfg.Replicas
	sim, _, nw := deploy(cfg.Seed, king.New(cfg.Seed), cfg.N, coreCfg)
	storeCfg := store.Config{SyncEvery: cfg.SyncEvery}
	stores := startStores(nw, storeCfg)
	sim.Run(cfg.WarmUp)

	var res StorageResult
	mix := newKVMix(sim, stores, cfg.ServingNodes, cfg.Keys, cfg.ReadFraction, "storage-key-%d", "value-%d")
	mix.tally = kvTally{&res.Gets, &res.Hits, &res.Misses, &res.Unwritten, &res.Puts, &res.PutOK}
	end := sim.Now() + cfg.Duration
	poisson(sim, rand.New(rand.NewSource(cfg.Seed+202)), cfg.Rate, until(sim, end), mix.arrive)

	// Scripted churn: kill a non-gateway node at evenly spaced points, and
	// rejoin a replacement (fresh online identity) 15 seconds later. The
	// replacement's store pulls the key range it now owns.
	churnRng := rand.New(rand.NewSource(cfg.Seed + 303))
	for k := 0; k < cfg.Kills; k++ {
		at := cfg.Duration * time.Duration(k+1) / time.Duration(cfg.Kills+1)
		victim := transport.Addr(cfg.ServingNodes + churnRng.Intn(cfg.N-cfg.ServingNodes))
		sim.After(at, func() {
			if node := nw.Node(victim); node == nil || !node.Chord.Running() {
				return // already dead (double draw): skip
			}
			nw.Ring.Kill(victim)
			res.Kills++
			sim.After(15*time.Second, func() {
				rejoinRandom(nw, churnRng, victim, coreCfg, func(node *core.Node, err error) {
					if err != nil {
						return // refused or unreachable: the ring stays one smaller
					}
					res.Rejoins++
					stores[victim] = startStore(node, storeCfg)
					stores[victim].PullOwnedRange(func(int, error) {})
				})
			})
		})
	}

	sim.Run(end)
	// Drain: in-flight operations complete or time out.
	sim.Run(end + 2*time.Minute)

	if denom := res.Hits + res.Misses; denom > 0 {
		res.HitRate = float64(res.Hits) / float64(denom)
	}
	res.PutP50 = time.Duration(mix.putLat.Percentile(50) * float64(time.Second))
	res.PutP95 = time.Duration(mix.putLat.Percentile(95) * float64(time.Second))
	res.PutP99 = time.Duration(mix.putLat.Percentile(99) * float64(time.Second))
	res.GetP50 = time.Duration(mix.getLat.Percentile(50) * float64(time.Second))
	res.GetP95 = time.Duration(mix.getLat.Percentile(95) * float64(time.Second))
	res.GetP99 = time.Duration(mix.getLat.Percentile(99) * float64(time.Second))
	for _, st := range stores {
		res.Pulled += st.Stats().PulledEntries.Load()
		res.ReplicaEntries += st.Stats().ReplicaEntries.Load()
	}
	return res
}
