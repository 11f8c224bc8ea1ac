package experiments

import (
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/halo"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// EfficiencyConfig parameterizes the §7 testbed experiments (Table 3 and
// Fig. 7(a)). The paper ran 207 PlanetLab nodes; we run the identical
// protocol state machines over the simulator with a PlanetLab-like latency
// distribution (mean RTT ≈ 90 ms — PlanetLab pairs are faster than the
// King DNS pairs; see README.md).
type EfficiencyConfig struct {
	// Nodes is the testbed size (paper: 207).
	Nodes int
	// Lookups is the total number of measured lookups per scheme
	// (paper: 2000 per node; scale down for quick runs).
	Lookups int
	// MeanRTT and Sigma calibrate the latency model. PlanetLab pairs are
	// faster than King DNS pairs on average but far heavier-tailed
	// (loaded nodes stall for seconds) — the tail is what separates
	// Halo's wait-for-all-32-branches latency from Octopus's (Table 3).
	MeanRTT time.Duration
	Sigma   float64
	// WarmUp precedes measurements so Octopus can stock relay pools.
	WarmUp time.Duration
	// BigNetFingers sizes routing tables as a 1 000 000-node deployment
	// would (paper footnote 4), for the bandwidth accounting.
	BigNetFingers int
	// BandwidthWindow is the steady-state span measured for Table 3's
	// bandwidth columns.
	BandwidthWindow time.Duration
	// Seed drives all randomness.
	Seed int64
}

// DefaultEfficiencyConfig mirrors §7 at a laptop-friendly lookup volume.
func DefaultEfficiencyConfig() EfficiencyConfig {
	return EfficiencyConfig{
		Nodes:           207,
		Lookups:         2000,
		MeanRTT:         70 * time.Millisecond,
		Sigma:           1.3,
		WarmUp:          3 * time.Minute,
		BigNetFingers:   20,
		BandwidthWindow: 10 * time.Minute,
		Seed:            1,
	}
}

// SchemeEfficiency is one row of Table 3 plus its Fig. 7(a) CDF.
type SchemeEfficiency struct {
	Name          string
	MeanLatency   time.Duration
	MedianLatency time.Duration
	CDF           []metrics.CDFPoint
	// BandwidthKbps maps the lookup interval (Table 3: 5 min and
	// 10 min) to per-node bandwidth in kilobits per second.
	BandwidthKbps map[time.Duration]float64
	Failures      int
}

// stallLatency layers PlanetLab's host-load stalls over a base model:
// with probability StallP a transmission is delayed by an exponential
// multi-second stall (overloaded PlanetLab hosts routinely stall requests
// for seconds — the effect behind Table 3's huge Halo mean/median gap:
// a wait-for-all-32-branches lookup almost always catches a straggler,
// while Octopus's few sequential queries rarely do).
type stallLatency struct {
	inner     simnet.LatencyModel
	stallP    float64
	stallMean time.Duration
}

var _ simnet.LatencyModel = stallLatency{}

func (s stallLatency) Base(a, b simnet.Address) time.Duration { return s.inner.Base(a, b) }

func (s stallLatency) Sample(a, b simnet.Address, rng *rand.Rand) time.Duration {
	d := s.inner.Sample(a, b, rng)
	if s.stallP > 0 && rng.Float64() < s.stallP {
		d += time.Duration(rng.ExpFloat64() * float64(s.stallMean))
	}
	return d
}

// latencyModel builds the PlanetLab-like model.
func (cfg EfficiencyConfig) latencyModel() simnet.LatencyModel {
	sigma := cfg.Sigma
	if sigma == 0 {
		sigma = king.DefaultSigma
	}
	return stallLatency{
		inner:     king.NewWith(cfg.Seed, cfg.MeanRTT, sigma),
		stallP:    0.002,
		stallMean: 4 * time.Second,
	}
}

// paperCoreConfig is core.DefaultConfig restricted to the paper's §6
// measurement semantics: one table query in flight per lookup and a purely
// walk-timer-fed relay pool. The serving path (LookupService, octopusd,
// the load experiment) layers α-parallelism and the managed pool on top;
// the paper's tables and figures must stay bit-identical under a fixed
// seed, so the experiments pin the sequential schedule explicitly.
func paperCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LookupParallelism = 1
	cfg.PairPoolTarget = 0
	// Every measured lookup must actually issue its queries: a cache hit
	// would skip the traffic the figures exist to measure.
	cfg.LookupCacheSize = 0
	return cfg
}

// table3Scheme is one system of Table 3: the seed offsets its runs draw
// from, its latency run's timing, and how to stand it up on a simulator.
type table3Scheme struct {
	name string
	// The latency run's simulator is seeded with Seed+seed and its lookup
	// stream with Seed+seed+1; each bandwidth run likewise with bwSeed.
	seed, bwSeed int64
	// warm precedes the latency run's lookups, gap spaces them and drain
	// lets the last ones finish; bwWarm precedes the bandwidth window.
	warm, gap, drain, bwWarm time.Duration
	// build stands the system up on a fresh simulator seeded with seed;
	// bigNet sizes it for the bandwidth runs.
	build func(seed int64, bigNet bool) (*simnet.Simulator, *simnet.Network, lookupFunc)
}

// lookupFunc resolves key from node from and reports the latency or the
// failure.
type lookupFunc func(from simnet.Address, key id.ID, done func(time.Duration, error))

// runTable3 measures one row: latency over cfg.Lookups spaced lookups from
// random nodes, then per-node bandwidth with every node looking a key up
// every 5 and every 10 minutes.
func runTable3(cfg EfficiencyConfig, s table3Scheme) SchemeEfficiency {
	out := SchemeEfficiency{Name: s.name, BandwidthKbps: map[time.Duration]float64{}}
	sim, _, lookup := s.build(cfg.Seed+s.seed, false)
	sim.Run(s.warm)
	rng := rand.New(rand.NewSource(cfg.Seed + s.seed + 1))
	lat := &metrics.Sample{}
	for i := 0; i < cfg.Lookups; i++ {
		lookup(simnet.Address(rng.Intn(cfg.Nodes)), id.ID(rng.Uint64()), func(d time.Duration, err error) {
			if err != nil {
				out.Failures++
				return
			}
			lat.AddDuration(d)
		})
		sim.Run(sim.Now() + s.gap)
	}
	sim.Run(sim.Now() + s.drain)
	out.MeanLatency = time.Duration(lat.Mean() * float64(time.Second))
	out.MedianLatency = time.Duration(lat.Median() * float64(time.Second))
	out.CDF = lat.CDF(50)

	for _, every := range []time.Duration{5 * time.Minute, 10 * time.Minute} {
		sim, net, lookup := s.build(cfg.Seed+s.bwSeed, true)
		rng := rand.New(rand.NewSource(cfg.Seed + s.bwSeed + 1))
		for i := 0; i < cfg.Nodes; i++ {
			addr := simnet.Address(i)
			sim.Every(every, func() { lookup(addr, id.ID(rng.Uint64()), func(time.Duration, error) {}) })
		}
		traffic := func() (total uint64) {
			for i := 0; i < cfg.Nodes; i++ {
				st := net.Stats(simnet.Address(i))
				total += st.BytesSent + st.BytesReceived
			}
			return total
		}
		sim.Run(s.bwWarm)
		before := traffic()
		sim.Run(sim.Now() + cfg.BandwidthWindow)
		// (sent+received)/2 per node over the window.
		bytesPerNode := float64(traffic()-before) / 2 / float64(cfg.Nodes)
		out.BandwidthKbps[every] = bytesPerNode * 8 / 1000 / cfg.BandwidthWindow.Seconds()
	}
	return out
}

// chordRing builds the baselines' plain Chord ring. The latency runs wait
// out PlanetLab stragglers instead of timing out: the paper's measurements
// run to completion ("a lookup is not completed until all redundant
// lookups' results are returned"). The bandwidth runs size tables as a
// 1 000 000-node ring would.
func chordRing(cfg EfficiencyConfig, seed int64, bigNet bool) (*simnet.Simulator, *simnet.Network, *chord.Ring) {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, cfg.latencyModel(), cfg.Nodes)
	ccfg := chord.DefaultConfig()
	if bigNet {
		ccfg.Fingers = cfg.BigNetFingers
	} else {
		ccfg.RPCTimeout = 15 * time.Second
	}
	return sim, net, chord.BuildRing(net, ccfg, cfg.Nodes, nil)
}

// RunChordEfficiency measures the Chord baseline.
func RunChordEfficiency(cfg EfficiencyConfig) SchemeEfficiency {
	return runTable3(cfg, table3Scheme{
		name: "Chord", seed: 0, bwSeed: 7,
		warm: 30 * time.Second, gap: 20 * time.Millisecond, drain: time.Minute,
		build: func(seed int64, bigNet bool) (*simnet.Simulator, *simnet.Network, lookupFunc) {
			sim, net, ring := chordRing(cfg, seed, bigNet)
			return sim, net, func(from simnet.Address, key id.ID, done func(time.Duration, error)) {
				ring.Node(from).Lookup(key, func(_ chord.Peer, ls chord.LookupStats, err error) { done(ls.Latency(), err) })
			}
		},
	})
}

// RunHaloEfficiency measures Halo with the paper's 8×4 degree-2 setup.
func RunHaloEfficiency(cfg EfficiencyConfig) SchemeEfficiency {
	return runTable3(cfg, table3Scheme{
		name: "Halo", seed: 2, bwSeed: 9,
		warm: 30 * time.Second, gap: 50 * time.Millisecond, drain: 2 * time.Minute,
		build: func(seed int64, bigNet bool) (*simnet.Simulator, *simnet.Network, lookupFunc) {
			sim, net, ring := chordRing(cfg, seed, bigNet)
			return sim, net, func(from simnet.Address, key id.ID, done func(time.Duration, error)) {
				halo.NewClient(ring.Node(from), halo.DefaultConfig()).Lookup(key,
					func(_ chord.Peer, st halo.Stats, err error) { done(st.Latency(), err) })
			}
		},
	})
}

// RunOctopusEfficiency measures the full Octopus stack.
func RunOctopusEfficiency(cfg EfficiencyConfig) SchemeEfficiency {
	return runTable3(cfg, table3Scheme{
		name: "Octopus", seed: 4, bwSeed: 11,
		// Spacing keeps relay pools from draining between lookups; the
		// bandwidth window skips the deployment transient.
		warm: cfg.WarmUp, gap: 500 * time.Millisecond, drain: time.Minute, bwWarm: 2 * time.Minute,
		build: func(seed int64, bigNet bool) (*simnet.Simulator, *simnet.Network, lookupFunc) {
			coreCfg := paperCoreConfig()
			if bigNet {
				coreCfg.EstimatedSize = 1_000_000 // bound checker sized for the big net
				coreCfg.Chord.Fingers = cfg.BigNetFingers
			} else {
				coreCfg.EstimatedSize = cfg.Nodes
				// Octopus abandons straggling queries quickly and re-routes
				// around them (its table-based convergence is redundant
				// across answers); Halo, by contrast, must wait for all 32
				// branches. This asymmetric reaction to stragglers is
				// exactly why Octopus beats Halo on PlanetLab despite doing
				// more work (§7).
				coreCfg.QueryTimeout = 3 * time.Second
			}
			sim, net, nw := deploy(seed, cfg.latencyModel(), cfg.Nodes, coreCfg)
			return sim, net, func(from simnet.Address, key id.ID, done func(time.Duration, error)) {
				nw.Node(from).AnonLookup(key, func(_ chord.Peer, ls core.LookupStats, err error) { done(ls.Latency(), err) })
			}
		},
	})
}
