package adversary

import (
	"math"
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// End-to-end timing analysis attack (§4.7, Table 1). Malicious relays A and
// Di on the same anonymous path try to recognize each other by comparing
// the upstream latency (A's forward send to Di's receive) with the
// downstream latency (Di's reply send to A's receive): in a noise-free
// network both equal the same path delay. Octopus defeats the attack by
// letting relay B insert a random delay (up to MaxDelay) independently in
// each direction, which drowns the similarity in noise.

// TimingConfig parameterizes one attack simulation.
type TimingConfig struct {
	// N is the network size (paper: 1 000 000).
	N int
	// MaliciousFraction is f (paper: 0.20).
	MaliciousFraction float64
	// ConcurrentRate is α, the fraction of nodes with a lookup in
	// flight; the adversary must disambiguate among α·N concurrent
	// paths.
	ConcurrentRate float64
	// MaxDelay is relay B's maximum random delay (100 ms or 200 ms).
	MaxDelay time.Duration
	// SamplePairs caps how many true pairs are evaluated (Monte Carlo
	// sample); each is matched against every concurrent candidate.
	SamplePairs int
	// Seed drives the simulation.
	Seed int64
}

// DefaultTimingConfig mirrors the paper's Table 1 setup.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		N:                 1_000_000,
		MaliciousFraction: 0.20,
		ConcurrentRate:    0.01,
		MaxDelay:          100 * time.Millisecond,
		SamplePairs:       400,
		Seed:              1,
	}
}

// TimingResult reports the attack's accuracy.
type TimingResult struct {
	// ErrorRate is the fraction of true (A, Di) pairs the adversary
	// failed to re-identify.
	ErrorRate float64
	// InfoLeakBits is (1-err)·log2(N·(1-f) + N·α·f), the paper's
	// information-leak metric.
	InfoLeakBits float64
	// Candidates is the number of concurrent paths considered.
	Candidates int
}

// pathObservation is what the colluding pair on one path records.
type pathObservation struct {
	// upstream is t(Di receives query) − t(A forwards query).
	upstream time.Duration
	// downstream is t(A receives reply) − t(Di forwards reply).
	downstream time.Duration
}

// SimulateTimingAttack runs the Table 1 experiment: α·N concurrent
// anonymous queries, each on its own path with King-model latencies, jitter
// min(10 ms, 10 %), and relay B's independent random delays per direction.
// The adversary matches each sampled true A-observation to the Di-candidate
// minimizing |upstream − downstream|.
func SimulateTimingAttack(cfg TimingConfig) TimingResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lat := king.New(cfg.Seed)
	paths := max(int(float64(cfg.N)*cfg.ConcurrentRate), 2)

	// One observation per concurrent path. Addresses are drawn uniformly
	// from the population; only the latencies of the A→B and B→C→Di
	// segments matter.
	obs := make([]pathObservation, paths)
	for i := range obs {
		a := simnet.Address(rng.Intn(cfg.N))
		b := simnet.Address(rng.Intn(cfg.N))
		c := simnet.Address(rng.Intn(cfg.N))
		d := simnet.Address(rng.Intn(cfg.N))
		delayFwd := time.Duration(rng.Int63n(int64(cfg.MaxDelay) + 1))
		delayBwd := time.Duration(rng.Int63n(int64(cfg.MaxDelay) + 1))
		obs[i] = pathObservation{
			upstream: lat.Sample(a, b, rng) + delayFwd + lat.Sample(b, c, rng) + lat.Sample(c, d, rng),
			downstream: lat.Sample(d, c, rng) + lat.Sample(c, b, rng) + delayBwd +
				lat.Sample(b, a, rng),
		}
	}

	sample := cfg.SamplePairs
	if sample <= 0 || sample > paths {
		sample = paths
	}
	errors := 0
	for s := 0; s < sample; s++ {
		i := s // evaluate the first `sample` true pairs (paths are iid)
		bestJ, bestDiff := -1, time.Duration(math.MaxInt64)
		for j := 0; j < paths; j++ {
			diff := obs[i].upstream - obs[j].downstream
			if diff < 0 {
				diff = -diff
			}
			if diff < bestDiff {
				bestDiff, bestJ = diff, j
			}
		}
		if bestJ != i {
			errors++
		}
	}
	errRate := float64(errors) / float64(sample)
	anonSet := float64(cfg.N)*(1-cfg.MaliciousFraction) +
		float64(cfg.N)*cfg.ConcurrentRate*cfg.MaliciousFraction
	return TimingResult{
		ErrorRate:    errRate,
		InfoLeakBits: (1 - errRate) * math.Log2(anonSet),
		Candidates:   paths,
	}
}
