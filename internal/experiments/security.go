// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5–§7). Each runner builds the required simulated
// system, executes the paper's workload, and returns the same rows or
// series the paper reports. README.md maps every experiment to its
// runner and to the bench target that regenerates it.
package experiments

import (
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/adversary"
	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// SecurityConfig parameterizes the §5 event simulations.
type SecurityConfig struct {
	// N is the network size (paper: 1000) and F the malicious fraction
	// (paper: 0.20).
	N int
	F float64
	// Strategy selects the active attack under study, including the
	// attack rate.
	Strategy adversary.Strategy
	// Duration is the simulated time span (paper figures: 1000 s).
	Duration time.Duration
	// SampleEvery sets the figure's sampling interval.
	SampleEvery time.Duration
	// ChurnMean enables churn with the given mean lifetime (Table 2
	// uses 60 min and 10 min; 0 disables).
	ChurnMean time.Duration
	// LookupEvery, when nonzero, makes every honest node perform
	// anonymous lookups at this interval (Fig. 3(b): one per minute).
	LookupEvery time.Duration
	// DoSDefense arms the Appendix II dropped-query reporting (Fig. 9).
	DoSDefense bool
	// Seed drives all randomness.
	Seed int64
}

// DefaultSecurityConfig returns the paper's §5.1 setup.
func DefaultSecurityConfig() SecurityConfig {
	return SecurityConfig{
		N:           1000,
		F:           0.20,
		Duration:    1000 * time.Second,
		SampleEvery: 50 * time.Second,
		Seed:        1,
	}
}

// SecuritySample is one point of the Fig. 3/4/9 time series.
type SecuritySample struct {
	T time.Duration
	// MaliciousFraction is the fraction of the population that is
	// malicious and still in the network.
	MaliciousFraction float64
	// CAMessages is the cumulative number of messages the CA received.
	CAMessages uint64
	// Lookups and Biased count completed and incorrectly-resolved
	// anonymous lookups so far (Fig. 3(b)).
	Lookups uint64
	Biased  uint64
}

// SecurityResult aggregates one security run.
type SecurityResult struct {
	Samples []SecuritySample
	// Accuracy metrics (Table 2).
	FalsePositiveRate float64 // honest nodes revoked / revocations opportunities
	FalseNegativeRate float64 // tested manipulating attackers not detected
	FalseAlarmRate    float64 // CA investigations identifying nobody
	// Raw counters.
	Revocations     uint64
	HonestRevoked   uint64
	RevokedByKind   map[core.ReportKind]uint64
	HonestByKind    map[core.ReportKind]uint64
	Reports         uint64
	FalseAlarms     uint64
	ChecksOnGuilty  uint64
	MissesOnGuilty  uint64
	FinalMalicious  float64
	TotalLookups    uint64
	TotalBiased     uint64
	InitialAttacker int
}

// RunSecurity executes one §5 experiment: build the Octopus network over
// the WAN latency model, install the adversary, optionally churn the
// population and drive per-node lookups, and track the identification
// mechanisms' progress.
func RunSecurity(cfg SecurityConfig) SecurityResult {
	coreCfg := paperCoreConfig()
	coreCfg.EstimatedSize = cfg.N
	coreCfg.DoSDefense = cfg.DoSDefense
	sim, _, nw := deploy(cfg.Seed, king.New(cfg.Seed), cfg.N, coreCfg)
	advRng := rand.New(rand.NewSource(cfg.Seed + 1))
	adv := adversary.Install(nw, cfg.F, cfg.Strategy, advRng)

	res := SecurityResult{
		InitialAttacker: len(adv.Members),
		RevokedByKind:   make(map[core.ReportKind]uint64),
		HonestByKind:    make(map[core.ReportKind]uint64),
	}

	// Revocation bookkeeping: honest-vs-malicious verdicts per mechanism.
	nw.CA.OnRevoke = func(p chord.Peer, kind core.ReportKind) {
		res.RevokedByKind[kind]++
		if !adv.IsMalicious(p.Addr) {
			res.HonestRevoked++
			res.HonestByKind[kind]++
		}
		nw.Eject(p)
	}

	// False-negative instrumentation: a probe against a live attacker
	// that fails to detect is a miss. Only the mechanism matching the
	// attack under study counts — a neighbor check cannot "miss" a
	// finger manipulator and vice versa (Table 2 reports per-mechanism
	// rates).
	guiltyProbe := func(target chord.Peer, detected bool) {
		if !adv.IsMalicious(target.Addr) {
			return
		}
		res.ChecksOnGuilty++
		if !detected {
			res.MissesOnGuilty++
		}
	}
	for _, node := range nw.Nodes {
		if adv.IsMalicious(node.Self().Addr) {
			continue
		}
		if cfg.Strategy.BiasLookups {
			node.OnNeighborCheck = func(target chord.Peer, detected bool) {
				guiltyProbe(target, detected)
			}
		}
		if cfg.Strategy.ManipulateFingers {
			node.OnFingerCheck = func(owner, claimed chord.Peer, detected bool, err error) {
				// Only probes of actually-redirected entries count:
				// a manipulated finger points at a colluder.
				if err == nil && adv.IsMalicious(claimed.Addr) {
					guiltyProbe(owner, detected)
				}
			}
		}
	}

	// Churn (Table 2): replacements keep their predecessor's role and
	// rejoin through the wire path a real joiner takes.
	if cfg.ChurnMean > 0 {
		churner := simnet.NewChurner(sim, cfg.ChurnMean)
		churner.OnDeath = func(addr simnet.Address) {
			if node := nw.Node(addr); node != nil {
				node.Stop()
			}
		}
		churner.OnRejoin = func(addr simnet.Address) {
			if node := nw.Node(addr); node != nil && !node.Chord.Running() &&
				nw.CA.Revoked(node.Chord.Self.ID) && adv.IsMalicious(addr) {
				// A revoked attacker slot stays out: the CA refuses
				// to certify churning attackers back in once caught.
				return
			}
			rejoinRandom(nw, sim.Rand(), addr, coreCfg, func(node *core.Node, err error) {
				if err != nil {
					return // a failed online join leaves the slot empty until the next cycle
				}
				adv.ReplaceAt(addr, node)
			})
		}
		for i := 0; i < cfg.N; i++ {
			churner.Track(simnet.Address(i))
		}
	}

	// Per-node anonymous lookups (Fig. 3(b)).
	if cfg.LookupEvery > 0 {
		lookupRng := rand.New(rand.NewSource(cfg.Seed + 2))
		for i := 0; i < cfg.N; i++ {
			addr := simnet.Address(i)
			if adv.IsMalicious(addr) {
				continue
			}
			sim.Every(cfg.LookupEvery, func() {
				node := nw.Node(addr)
				if node == nil || !node.Chord.Running() {
					return
				}
				key := id.ID(lookupRng.Uint64())
				want := nw.Ring.Owner(key)
				node.AnonLookup(key, func(owner chord.Peer, _ core.LookupStats, err error) {
					if err != nil {
						return
					}
					res.TotalLookups++
					if owner != want {
						res.TotalBiased++
					}
				})
			})
		}
	}

	// Sampling loop.
	for t := time.Duration(0); t <= cfg.Duration; t += cfg.SampleEvery {
		sim.Run(t)
		res.Samples = append(res.Samples, SecuritySample{
			T:                 t,
			MaliciousFraction: float64(adv.AliveMembers()) / float64(cfg.N),
			CAMessages:        nw.CA.MessagesReceived(),
			Lookups:           res.TotalLookups,
			Biased:            res.TotalBiased,
		})
	}

	stats := nw.CA.Stats()
	res.Revocations = stats.Revocations
	res.Reports = stats.ReportsReceived
	res.FalseAlarms = stats.FalseAlarms
	// The per-mechanism false-positive rate (Table 2 reports accuracy per
	// identification mechanism): convictions through the mechanism under
	// study that hit honest nodes.
	var kinds []core.ReportKind
	if cfg.Strategy.BiasLookups {
		kinds = append(kinds, core.ReportNeighborOmission)
	}
	if cfg.Strategy.ManipulateFingers {
		kinds = append(kinds, core.ReportFingerManipulation, core.ReportFingerPollution)
	}
	if cfg.Strategy.SelectiveDrop {
		kinds = append(kinds, core.ReportSelectiveDrop)
	}
	var kindRevoked, kindHonest uint64
	for _, k := range kinds {
		kindRevoked += res.RevokedByKind[k]
		kindHonest += res.HonestByKind[k]
	}
	if kindRevoked > 0 {
		res.FalsePositiveRate = float64(kindHonest) / float64(kindRevoked)
	}
	if res.ChecksOnGuilty > 0 {
		res.FalseNegativeRate = float64(res.MissesOnGuilty) / float64(res.ChecksOnGuilty)
	}
	if stats.Investigations > 0 {
		res.FalseAlarmRate = float64(stats.FalseAlarms) / float64(stats.Investigations)
	}
	res.FinalMalicious = float64(adv.AliveMembers()) / float64(cfg.N)
	return res
}

// MaliciousSeries extracts the Fig. 3(a)/3(c)/4/9 series.
func (r SecurityResult) MaliciousSeries() *metrics.Series {
	s := &metrics.Series{}
	for _, p := range r.Samples {
		s.Add(p.T, p.MaliciousFraction)
	}
	return s
}

// CAWorkloadSeries extracts Fig. 7(b): CA messages per second per sampling
// bucket.
func (r SecurityResult) CAWorkloadSeries() *metrics.Series {
	s := &metrics.Series{}
	var prev uint64
	var prevT time.Duration
	for _, p := range r.Samples {
		if p.T == 0 {
			prev, prevT = p.CAMessages, p.T
			continue
		}
		dt := (p.T - prevT).Seconds()
		if dt > 0 {
			s.Add(p.T, float64(p.CAMessages-prev)/dt)
		}
		prev, prevT = p.CAMessages, p.T
	}
	return s
}
