package experiments

import (
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
)

// The chaos experiment is the system's disaster drill: a full Octopus ring —
// anonymous lookups, replicated storage, CA, the wire membership path — is
// driven through a scripted storm (correlated mass-kill, rolling asymmetric
// partitions, loss and jitter bursts, a flash-crowd rejoin) while client
// gateways keep offering load. The run measures lookup success rate and
// store hit rate per phase (baseline / storm / post-recovery) and the
// time-to-recovery: how long after the storm begins the ring again sustains
// its SLOs over a full measurement window. Every draw comes from seeded
// RNGs, so a failing run replays byte-identically from its seed and the
// storm's event log names exactly what happened when.

// ChaosSLO holds the explicit service-level thresholds a chaos run is
// judged against.
type ChaosSLO struct {
	// LookupSuccess is the minimum fraction of anonymous lookups that must
	// resolve the ground-truth owner (post-recovery, and per recovery
	// window).
	LookupSuccess float64
	// StoreHit is the minimum fraction of reads-of-acknowledged-keys that
	// must find a replica.
	StoreHit float64
	// RecoverWithin bounds the recovery search: if no window meets both
	// thresholds within this duration after the storm script ends, the run
	// fails with Recovered == false.
	RecoverWithin time.Duration
}

// DefaultChaosSLO is the acceptance bar: 95% lookup success, 99% store hit
// rate, recovery within five minutes of the storm's end.
func DefaultChaosSLO() ChaosSLO {
	return ChaosSLO{LookupSuccess: 0.95, StoreHit: 0.99, RecoverWithin: 5 * time.Minute}
}

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// N is the ring size (+1 slot for the CA). The full suite runs 1000.
	N int
	// ServingNodes is how many nodes act as client gateways. Gateways are
	// exempt from the storm — they model the operator's own stable edge, and
	// keeping them up means a degraded ring is measured, not a dead client.
	ServingNodes int
	// Keys is the working-set size for store traffic.
	Keys int
	// LookupRate and OpRate are the offered loads (per second, open loop)
	// of anonymous lookups and store operations respectively.
	LookupRate, OpRate float64
	// ReadFraction is the probability a store arrival is a Get.
	ReadFraction float64
	// Tier is core.Config.RoutingTier (empty = finger). The storm is the
	// tier's worst case: mass kills and flash rejoins are exactly the
	// events a one-hop tier must disseminate ring-wide.
	Tier string
	// Replicas is core.Config.StoreReplicas; SyncEvery the stores'
	// re-replication period.
	Replicas  int
	SyncEvery time.Duration
	// WarmUp precedes all measurement; Baseline is the measured calm window
	// before the storm; StormHold is how long the storm phase lasts (it
	// must cover the script's last event); PostRecovery is the measured
	// window after recovery is declared.
	WarmUp, Baseline, StormHold, PostRecovery time.Duration
	// Window is the recovery-probe granularity: recovery is declared at the
	// first whole window meeting every SLO.
	Window time.Duration
	// Script is the storm, with offsets relative to the end of Baseline.
	Script []simnet.StormEvent
	// SLO is the bar the run is judged against.
	SLO ChaosSLO
	// Seed drives all randomness.
	Seed int64
	// Collector, when non-nil, has the whole deployment registered with it
	// (fault-layer network, every node, every store — including storm
	// rejoins) so the caller can export a metrics snapshot after the run.
	// Registration is passthrough: it draws no randomness and schedules
	// nothing, so a run with a Collector replays byte-identically to one
	// without.
	Collector *obs.Collector
}

// DefaultChaosConfig is the full-scale suite: a 1000-node ring through a
// 40% kill-storm with rolling partitions and a flash-crowd rejoin.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		N:            1000,
		ServingNodes: 8,
		Keys:         64,
		LookupRate:   10,
		OpRate:       8,
		ReadFraction: 0.7,
		Replicas:     3,
		SyncEvery:    10 * time.Second,
		WarmUp:       time.Minute,
		Baseline:     time.Minute,
		StormHold:    90 * time.Second,
		PostRecovery: 2 * time.Minute,
		Window:       10 * time.Second,
		Script:       DefaultStormScript(),
		SLO:          DefaultChaosSLO(),
		Seed:         1,
	}
}

// DefaultStormScript is the acceptance storm: a background loss burst, a
// correlated 40% mass-kill, an asymmetric partition sweeping the survivors,
// then a flash-crowd rejoin under jitter.
func DefaultStormScript() []simnet.StormEvent {
	return []simnet.StormEvent{
		{At: 0, Op: simnet.OpLossBurst, P: 0.05, Dur: 30 * time.Second},
		{At: 5 * time.Second, Op: simnet.OpMassKill, Frac: 0.4},
		{At: 10 * time.Second, Op: simnet.OpRollingPartition, Dur: 20 * time.Second, Groups: 4},
		{At: 40 * time.Second, Op: simnet.OpFlashRejoin, Spread: 10 * time.Second},
		{At: 55 * time.Second, Op: simnet.OpJitterBurst, P: 0.2, Jitter: 200 * time.Millisecond, Dur: 15 * time.Second},
	}
}

// ChaosPhase aggregates one measurement phase. Operations are attributed to
// the phase in which they complete.
type ChaosPhase struct {
	// Lookups / LookupOK count anonymous lookups and those that resolved
	// the ground-truth owner.
	Lookups, LookupOK int
	// Store traffic: Gets split into Hits, Misses (acknowledged key, no
	// replica answered) and Unwritten (correct negatives).
	Gets, Hits, Misses, Unwritten int
	Puts, PutOK                   int
	// LookupSuccess = LookupOK/Lookups; HitRate = Hits/(Hits+Misses).
	LookupSuccess, HitRate float64
}

func (p *ChaosPhase) kv() kvTally {
	return kvTally{&p.Gets, &p.Hits, &p.Misses, &p.Unwritten, &p.Puts, &p.PutOK}
}

func (p *ChaosPhase) finalize() {
	if p.Lookups > 0 {
		p.LookupSuccess = float64(p.LookupOK) / float64(p.Lookups)
	}
	if denom := p.Hits + p.Misses; denom > 0 {
		p.HitRate = float64(p.Hits) / float64(denom)
	} else {
		p.HitRate = 1 // no read of an acknowledged key: vacuously clean
	}
}

// ChaosResult summarizes one chaos run.
type ChaosResult struct {
	Baseline, Storm, PostRecovery ChaosPhase
	// Killed/Rejoined are the storm's churn counters; RejoinFailed counts
	// flash-crowd joins the ring refused (those slots stay empty).
	Killed, Rejoined, RejoinFailed int
	// Recovered reports whether any probe window met every SLO before the
	// RecoverWithin deadline. RecoveredAt is that window's end (virtual
	// time); TimeToRecovery measures from the first storm event.
	Recovered      bool
	RecoveredAt    time.Duration
	TimeToRecovery time.Duration
	// Pass is the verdict: recovered in time AND the post-recovery phase
	// held every SLO.
	Pass bool
	SLO  ChaosSLO
	// TierMaintBytes is the routing tier's own maintenance traffic summed
	// over all nodes and both directions; TierMaintBytesPerNodeSec divides
	// it by live population and the run's virtual length — the headline
	// "is one-hop upkeep bounded under churn" number.
	TierMaintBytes           uint64
	TierMaintBytesPerNodeSec float64
	// StormLog is the replayable event log (what happened, when).
	StormLog string
}

// RunChaos executes one chaos experiment.
func RunChaos(cfg ChaosConfig) ChaosResult {
	coreCfg := core.DefaultConfig()
	coreCfg.RoutingTier = cfg.Tier
	coreCfg.EstimatedSize = cfg.N
	coreCfg.StoreReplicas = cfg.Replicas
	// A cache hit would mask routing damage this suite exists to measure.
	coreCfg.LookupCacheSize = 0
	sim, net, nw := deploy(cfg.Seed, king.New(cfg.Seed), cfg.N, coreCfg)
	storeCfg := store.Config{SyncEvery: cfg.SyncEvery}
	stores := startStores(nw, storeCfg)
	if cfg.Collector != nil {
		cfg.Collector.Register(net)
		for _, node := range nw.Nodes {
			cfg.Collector.Register(node)
		}
		for _, st := range stores {
			cfg.Collector.Register(st)
		}
	}

	res := ChaosResult{SLO: cfg.SLO}

	// The storm population: everything but the gateways (and the CA, which
	// sits outside [0, N) entirely). Kills crash nodes with no goodbye;
	// rejoins run the full wire path a real `octopusd -join` takes — fresh
	// identity, CA admission, chord join — then pull the key range the
	// replacement now owns.
	population := make([]simnet.Address, 0, cfg.N-cfg.ServingNodes)
	for i := cfg.ServingNodes; i < cfg.N; i++ {
		population = append(population, simnet.Address(i))
	}
	storm := simnet.NewStorm(net, population)
	storm.OnKill = func(addr simnet.Address) {
		nw.Ring.Kill(transport.Addr(addr))
	}
	storm.OnRejoin = func(addr simnet.Address) {
		rejoinRandom(nw, sim.Rand(), addr, coreCfg, func(node *core.Node, err error) {
			if err != nil {
				res.RejoinFailed++
				return
			}
			st := startStore(node, storeCfg)
			stores[addr] = st
			if cfg.Collector != nil {
				cfg.Collector.Register(node)
				cfg.Collector.Register(st)
			}
			st.PullOwnedRange(func(int, error) {})
		})
	}

	sim.Run(cfg.WarmUp)

	// Client traffic, attributed to whichever phase an operation completes
	// in (cur). Lookups are judged against the ring's ground truth at
	// completion time; reads against the set of writes acknowledged when
	// the read was issued.
	cur := &res.Baseline
	stopTraffic := false
	stopped := func() bool { return stopTraffic }
	poisson(sim, rand.New(rand.NewSource(cfg.Seed+101)), cfg.LookupRate, stopped, func(rng *rand.Rand) {
		gw := nw.Nodes[rng.Intn(cfg.ServingNodes)]
		key := id.ID(rng.Uint64())
		gw.AnonLookup(key, func(owner chord.Peer, _ core.LookupStats, err error) {
			cur.Lookups++
			if err == nil && owner == nw.Ring.Owner(key) {
				cur.LookupOK++
			}
		})
	})
	mix := newKVMix(sim, stores, cfg.ServingNodes, cfg.Keys, cfg.ReadFraction, "chaos-key-%d", "chaos-value-%d")
	mix.tally = cur.kv()
	poisson(sim, rand.New(rand.NewSource(cfg.Seed+202)), cfg.OpRate, stopped, mix.arrive)

	// Phase 1: calm baseline.
	sim.Run(sim.Now() + cfg.Baseline)

	// Phase 2: the storm.
	cur = &res.Storm
	mix.tally = cur.kv()
	stormStart := sim.Now()
	storm.Run(cfg.Script)
	sim.Run(stormStart + cfg.StormHold)

	// Recovery probe: advance one window at a time until a whole window
	// meets every SLO (with enough samples to mean something), or the
	// deadline passes. Pre-recovery windows stay attributed to the storm
	// phase — recovering IS part of the storm's cost.
	minLookups := int(cfg.LookupRate*cfg.Window.Seconds()) / 4
	minReads := int(cfg.OpRate*cfg.ReadFraction*cfg.Window.Seconds()) / 4
	deadline := sim.Now() + cfg.SLO.RecoverWithin
	for sim.Now() < deadline && !res.Recovered {
		before := res.Storm
		sim.Run(sim.Now() + cfg.Window)
		w := ChaosPhase{
			Lookups:  res.Storm.Lookups - before.Lookups,
			LookupOK: res.Storm.LookupOK - before.LookupOK,
			Hits:     res.Storm.Hits - before.Hits,
			Misses:   res.Storm.Misses - before.Misses,
		}
		w.finalize()
		if w.Lookups >= minLookups && w.Hits+w.Misses >= minReads &&
			w.LookupSuccess >= cfg.SLO.LookupSuccess && w.HitRate >= cfg.SLO.StoreHit {
			res.Recovered = true
			res.RecoveredAt = sim.Now()
			res.TimeToRecovery = sim.Now() - stormStart
		}
	}

	// Phase 3: measured post-recovery window — the acceptance numbers.
	if res.Recovered {
		cur = &res.PostRecovery
		mix.tally = cur.kv()
		sim.Run(sim.Now() + cfg.PostRecovery)
	}
	stopTraffic = true
	sim.Run(sim.Now() + 30*time.Second) // drain in-flight operations

	res.Baseline.finalize()
	res.Storm.finalize()
	res.PostRecovery.finalize()
	res.Killed = int(storm.Killed())
	res.Rejoined = int(storm.Rejoined())
	res.StormLog = storm.FormatLog()
	alive := 0
	for i := 0; i < cfg.N; i++ {
		node := nw.Node(transport.Addr(i))
		if node == nil {
			continue
		}
		ts := node.Tier().Stats()
		res.TierMaintBytes += ts.BytesSent + ts.BytesReceived
		if node.Chord.Running() {
			alive++
		}
	}
	if secs := sim.Now().Seconds(); secs > 0 && alive > 0 {
		res.TierMaintBytesPerNodeSec = float64(res.TierMaintBytes) / float64(alive) / secs
	}
	res.Pass = res.Recovered &&
		res.PostRecovery.LookupSuccess >= cfg.SLO.LookupSuccess &&
		res.PostRecovery.HitRate >= cfg.SLO.StoreHit
	return res
}
