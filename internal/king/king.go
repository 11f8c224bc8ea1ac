// Package king is a synthetic substitute for the King dataset used by the
// paper (§5.1, footnote 2): measured latencies between Internet DNS servers
// with an average round-trip time of about 182 ms and high heterogeneity.
//
// Substitution rationale (see README.md): the paper's results depend on
// the latency *distribution* — its mean, its heavy tail, and the jitter
// window min(10 ms, 10 % of latency) taken from Acharya & Saltz — not on the
// concrete Internet paths in the 2004 measurement. This package reproduces
// those statistics with a deterministic per-pair log-normal sampler, so a
// one-million-node network needs no N×N matrix: the base latency of a pair
// is recomputed on demand from a hash of the pair.
package king

import (
	"math"
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/simnet"
)

// Default distribution parameters, calibrated so the mean RTT matches the
// King dataset's ≈182 ms with a realistic heavy tail.
const (
	// DefaultMeanRTT is the target mean round-trip time.
	DefaultMeanRTT = 182 * time.Millisecond
	// DefaultSigma is the log-normal shape parameter. 0.6 gives a
	// 5th–95th percentile spread of roughly 4x, matching the strong
	// heterogeneity of the measured dataset.
	DefaultSigma = 0.6
	// MaxJitter caps the per-transmission jitter window at 10 ms.
	MaxJitter = 10 * time.Millisecond
	// JitterFraction caps the jitter window at 10 % of the base latency.
	JitterFraction = 0.10
)

// Model is a deterministic pairwise latency model. It implements
// simnet.LatencyModel. The zero value is not usable; construct with New.
// A Model is immutable once built, so goroutines may share one; equal seeds
// make equal models.
type Model struct {
	seed  uint64
	mu    float64 // log-normal location for one-way latency in seconds
	sigma float64
}

var _ simnet.LatencyModel = (*Model)(nil)

// New returns a model with the default King-like parameters and the given
// seed. Distinct seeds produce distinct (but internally consistent) virtual
// topologies.
func New(seed int64) *Model {
	return NewWith(seed, DefaultMeanRTT, DefaultSigma)
}

// NewWith returns a model with an explicit mean RTT and log-normal sigma.
func NewWith(seed int64, meanRTT time.Duration, sigma float64) *Model {
	meanOneWay := meanRTT.Seconds() / 2
	// For X ~ LogNormal(mu, sigma), E[X] = exp(mu + sigma^2/2).
	mu := math.Log(meanOneWay) - sigma*sigma/2
	return &Model{seed: uint64(seed), mu: mu, sigma: sigma}
}

// splitmix64 is a fast, well-mixed 64-bit hash step used to derive
// per-pair randomness deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Base returns the deterministic one-way latency between a and b. It is
// symmetric: Base(a, b) == Base(b, a). The self-latency Base(a, a) is a
// small constant loopback delay. Any other pair draws two independent
// uniform(0,1] variates hashed from the pair, then a log-normal.
func (m *Model) Base(a, b simnet.Address) time.Duration {
	if a == b {
		return 100 * time.Microsecond
	}
	lo, hi := uint64(a), uint64(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	h := splitmix64(m.seed ^ splitmix64(lo^splitmix64(hi)))
	u1 := float64(h>>11)/(1<<53) + 1e-12
	u2 := float64(splitmix64(h)>>11)/(1<<53) + 1e-12
	// Box-Muller: one standard normal from two uniforms.
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	sec := math.Exp(m.mu + m.sigma*z)
	return time.Duration(sec * float64(time.Second))
}

// JitterWindow returns the jitter window for a transmission with the given
// base latency: min(10 ms, 10 % of the latency), per Acharya & Saltz.
func JitterWindow(base time.Duration) time.Duration {
	return min(time.Duration(float64(base)*JitterFraction), MaxJitter)
}

// Sample returns the latency of a single transmission: the base latency plus
// a uniform random jitter within the jitter window.
func (m *Model) Sample(a, b simnet.Address, rng *rand.Rand) time.Duration {
	base := m.Base(a, b)
	w := JitterWindow(base)
	if w <= 0 {
		return base
	}
	return base + time.Duration(rng.Int63n(int64(w)))
}
