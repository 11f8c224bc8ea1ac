package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
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
	sim := simnet.New(cfg.Seed)
	net := simnet.NewNetwork(sim, king.New(cfg.Seed), cfg.N+1)
	coreCfg := core.DefaultConfig()
	coreCfg.RoutingTier = cfg.Tier
	coreCfg.EstimatedSize = cfg.N
	coreCfg.StoreReplicas = cfg.Replicas
	nw, err := core.BuildNetwork(net, cfg.N, coreCfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: storage harness build failed: %v", err))
	}

	storeCfg := store.Config{SyncEvery: cfg.SyncEvery}
	stores := make([]*store.Store, cfg.N)
	for i, node := range nw.Nodes {
		stores[i] = store.New(node, storeCfg)
		stores[i].Start()
	}
	sim.Run(cfg.WarmUp)

	var res StorageResult
	putLat, getLat := &metrics.Sample{}, &metrics.Sample{}
	// acked tracks keys with at least one acknowledged write — the
	// denominator of the hit rate.
	acked := make(map[id.ID]bool)
	keys := make([]id.ID, cfg.Keys)
	for i := range keys {
		keys[i] = id.FromBytes([]byte(fmt.Sprintf("storage-key-%d", i)))
	}

	arrivals := rand.New(rand.NewSource(cfg.Seed + 202))
	end := sim.Now() + cfg.Duration
	seq := 0
	var schedule func()
	schedule = func() {
		dt := time.Duration(arrivals.ExpFloat64() / cfg.Rate * float64(time.Second))
		sim.After(dt, func() {
			if sim.Now() >= end {
				return
			}
			gw := stores[arrivals.Intn(cfg.ServingNodes)]
			key := keys[arrivals.Intn(len(keys))]
			start := sim.Now()
			if arrivals.Float64() < cfg.ReadFraction {
				res.Gets++
				written := acked[key] // when issued: a Put may be acknowledged mid-Get
				gw.Get(key, func(r store.GetResult) {
					getLat.AddDuration(sim.Now() - start)
					switch {
					case r.Found:
						res.Hits++
					case !written:
						res.Unwritten++
					default:
						res.Misses++
					}
				})
			} else {
				res.Puts++
				seq++
				value := []byte(fmt.Sprintf("value-%d", seq))
				gw.Put(key, value, func(r store.PutResult) {
					putLat.AddDuration(sim.Now() - start)
					if r.Err == nil {
						res.PutOK++
						acked[key] = true
					}
				})
			}
			schedule()
		})
	}
	schedule()

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
				alive := nw.Ring.AlivePeers()
				if len(alive) == 0 {
					return
				}
				bootstrap := alive[churnRng.Intn(len(alive))]
				nw.Rejoin(victim, bootstrap, coreCfg, func(node *core.Node, err error) {
					if err != nil {
						return // refused or unreachable: the ring stays one smaller
					}
					res.Rejoins++
					st := store.New(node, storeCfg)
					st.Start()
					stores[victim] = st
					st.PullOwnedRange(func(int, error) {})
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
	res.PutP50 = time.Duration(putLat.Percentile(50) * float64(time.Second))
	res.PutP95 = time.Duration(putLat.Percentile(95) * float64(time.Second))
	res.PutP99 = time.Duration(putLat.Percentile(99) * float64(time.Second))
	res.GetP50 = time.Duration(getLat.Percentile(50) * float64(time.Second))
	res.GetP95 = time.Duration(getLat.Percentile(95) * float64(time.Second))
	res.GetP99 = time.Duration(getLat.Percentile(99) * float64(time.Second))
	for _, st := range stores {
		s := st.Stats()
		res.Pulled += s.PulledEntries
		res.ReplicaEntries += s.ReplicaEntries
	}
	return res
}
