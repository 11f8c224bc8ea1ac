package anonymity

import (
	"math"
	"math/rand"
)

// Scheme selects which lookup protocol's observation model to analyze.
type Scheme int

// Analyzable schemes.
const (
	SchemeOctopus Scheme = iota + 1
	SchemeNISAN
	SchemeTorsk
	SchemeChord
)

func (s Scheme) String() string {
	switch s {
	case SchemeOctopus:
		return "Octopus"
	case SchemeNISAN:
		return "NISAN"
	case SchemeTorsk:
		return "Torsk"
	case SchemeChord:
		return "Chord"
	}
	return "unknown"
}

// Config parameterizes an anonymity analysis (§6's setting: N = 100 000,
// f up to 20 %, α = 0.5–1 %, 2 or 6 dummies).
type Config struct {
	N          int
	F          float64 // malicious fraction
	Alpha      float64 // concurrent lookup rate
	Dummies    int
	WalkLength int // l, phase length of the relay-selection walk
	SuccList   int
	Scheme     Scheme
	Trials     int
	PreSimRuns int
	Seed       int64
}

// DefaultConfig mirrors the paper's §6 setting.
func DefaultConfig() Config {
	return Config{
		N:          100_000,
		F:          0.20,
		Alpha:      0.01,
		Dummies:    6,
		WalkLength: 3,
		SuccList:   6,
		Scheme:     SchemeOctopus,
		Trials:     400,
		PreSimRuns: 4000,
		Seed:       1,
	}
}

// Result carries the computed entropies in bits.
type Result struct {
	HInitiator     float64
	HTarget        float64
	IdealInitiator float64 // log2((1-f)·N): honest-node anonymity ceiling
	IdealTarget    float64 // log2(N)
	LeakInitiator  float64
	LeakTarget     float64
}

// Analyzer computes H(I) and H(T) for one configuration.
type Analyzer struct {
	cfg   Config
	ring  *Ring
	rng   *rand.Rand
	xi    *distXi
	gamma *distGamma
	chi   *distChi
	hops  []float64 // hop-count distribution of the lookup model
}

// New builds the ring model and runs the pre-simulations.
func New(cfg Config) *Analyzer {
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := &Analyzer{cfg: cfg, rng: rng, ring: NewRing(cfg.N, cfg.SuccList, rng)}
	link := func(q int) []bool { return a.sampleQueryLinkability(q).linkable }
	a.xi, a.gamma, a.chi, a.hops = preSim(a.ring, rng, cfg.PreSimRuns, nil, link)
	return a
}

// queryLink is the adversary's per-lookup observation sample.
type queryLink struct {
	observed []bool
	linkable []bool
	// bLinked marks queries whose Ci relay is malicious and therefore
	// linkable to the lookup's shared relay B (Octopus only).
	bLinked []bool
	// aMal / buddyMal expose lookup-level relays.
	aMal     bool
	buddyMal bool
	// iObserved: the initiator's identity was seen somewhere (first
	// anonymization relay, a walk's first hop, or — for the direct
	// schemes — any queried node).
	iObserved bool
}

func (l queryLink) anyLinkable() bool {
	for _, b := range l.linkable {
		if b {
			return true
		}
	}
	return false
}

// sampleQueryLinkability draws which of a lookup's q queries are observed
// and linkable to the initiator under the scheme's observation process
// (§6.1).
func (a *Analyzer) sampleQueryLinkability(q int) queryLink {
	f := a.cfg.F
	rng := a.rng
	out := queryLink{observed: make([]bool, q), linkable: make([]bool, q)}
	switch a.cfg.Scheme {
	case SchemeOctopus:
		// One (A, B) pair per lookup; fresh (Ci, Di) per query; queries
		// linkable via compromised-relay bridging (A∧Ci), via a traced
		// relay-selection walk, and via B-closure (§6.1).
		out.aMal = rng.Float64() < f
		pWalkTrace := math.Pow(f, float64(2*a.cfg.WalkLength-1))
		pWalkObs := 1 - (1-f)*(1-f)
		out.bLinked = make([]bool, q)
		for i := 0; i < q; i++ {
			cMal := rng.Float64() < f
			dMal := rng.Float64() < f
			eMal := rng.Float64() < f
			out.observed[i] = dMal || eMal
			out.bLinked[i] = cMal
			walkTraced := rng.Float64() < pWalkTrace
			out.linkable[i] = out.observed[i] && ((out.aMal && cMal) || walkTraced)
		}
		if out.anyLinkable() {
			// Queries linkable to the shared relay B inherit the link
			// to I once any one query bridges both.
			for i := 0; i < q; i++ {
				if out.bLinked[i] && out.observed[i] {
					out.linkable[i] = true
				}
			}
		}
		out.iObserved = out.aMal || rng.Float64() < pWalkObs
	case SchemeNISAN:
		// The initiator contacts every queried node directly, and
		// NISAN's greedy search queries several nodes per step (§2),
		// so each step is observed unless ALL its redundant queried
		// nodes are honest. A malicious queried node observes the
		// query AND its initiator.
		const redundancy = 3
		pObs := 1 - math.Pow(1-f, redundancy)
		for i := 0; i < q; i++ {
			obs := rng.Float64() < pObs
			out.observed[i] = obs
			out.linkable[i] = obs
			if obs {
				out.iObserved = true
			}
		}
	case SchemeTorsk:
		// The buddy contacts queried nodes; the initiator contacts only
		// the buddy. A malicious buddy sees the initiator and the key.
		out.buddyMal = rng.Float64() < f
		for i := 0; i < q; i++ {
			eMal := rng.Float64() < f
			out.observed[i] = eMal
			out.linkable[i] = eMal && out.buddyMal
		}
		out.iObserved = out.buddyMal || rng.Float64() < f // buddy or walk hop
	case SchemeChord:
		// Recursive Chord: hop j sees hop j-1 and the key. Observation
		// = malicious hop; linkable to I only from the first hop.
		for i := 0; i < q; i++ {
			mal := rng.Float64() < f
			out.observed[i] = mal
			out.linkable[i] = mal && i == 0
			if mal && i == 0 {
				out.iObserved = true
			}
		}
	}
	return out
}

// sampleHopCount draws a lookup length from the pre-simulated distribution.
func (a *Analyzer) sampleHopCount() int {
	u := a.rng.Float64()
	acc := 0.0
	for h, p := range a.hops {
		acc += p
		if u <= acc {
			return h
		}
	}
	return len(a.hops) - 1
}

func entropyOfWeights(ws []float64) float64 {
	var sum float64
	for _, w := range ws {
		sum += w
	}
	if sum <= 0 {
		return 0
	}
	var h float64
	for _, w := range ws {
		if w > 0 {
			p := w / sum
			h += -p * math.Log2(p)
		}
	}
	return h
}

// binomial draws Binomial(n, p) (normal approximation for large n).
func binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < 64 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	return min(max(int(mean+sd*rng.NormFloat64()+0.5), 0), n)
}

// Analyze computes both entropies.
func (a *Analyzer) Analyze() Result {
	res := Result{
		IdealInitiator: math.Log2(float64(a.cfg.N) * (1 - a.cfg.F)),
		IdealTarget:    math.Log2(float64(a.cfg.N)),
	}
	res.HInitiator = a.HInitiator()
	res.HTarget = a.HTarget()
	res.LeakInitiator = res.IdealInitiator - res.HInitiator
	res.LeakTarget = res.IdealTarget - res.HTarget
	return res
}

// HInitiator computes H(I) per Eqs. (2)–(7): average over sampled
// observations of the initiator entropy, conditioned on whether the target
// is observed and whether any query of the target's lookup is linkable.
func (a *Analyzer) HInitiator() float64 {
	cfg := a.cfg
	rng := a.rng
	idealHon := math.Log2(float64(cfg.N) * (1 - cfg.F))
	concurrent := max(int(cfg.Alpha*float64(cfg.N)), 1)

	var sum float64
	for t := 0; t < cfg.Trials; t++ {
		// Simulate the target's own lookup first: some schemes' "target
		// observed" events depend on the same lookup's relays.
		init := rng.Intn(a.ring.N())
		target := rng.Intn(a.ring.N())
		key := a.ring.ID(target)
		path := a.ring.LookupPath(init, key)
		link := a.sampleQueryLinkability(len(path))

		// The target is observed when it is itself malicious (§6.1: the
		// key is never revealed in Octopus/NISAN). Torsk reveals the key
		// to the buddy; recursive Chord reveals it to every queried hop.
		tObserved := rng.Float64() < cfg.F
		if cfg.Scheme == SchemeTorsk {
			tObserved = tObserved || link.buddyMal
		}
		if cfg.Scheme == SchemeChord {
			for _, o := range link.observed {
				if o {
					tObserved = true
					break
				}
			}
		}
		if !tObserved {
			sum += idealHon
			continue
		}

		if cfg.Scheme == SchemeTorsk && link.buddyMal {
			// The buddy sees the initiator and the key together.
			sum += 0
			continue
		}
		if cfg.Scheme == SchemeChord {
			// Recursive Chord: the first malicious hop sees the key and
			// its predecessor hop. A malicious FIRST hop identifies I
			// outright; a deeper one narrows I to the initiators whose
			// paths route through the observed predecessor — a region
			// comparable to that hop's distance from the target
			// (distance roughly halves per hop).
			firstMal := -1
			for i := range link.observed {
				if link.observed[i] {
					firstMal = i
					break
				}
			}
			switch {
			case firstMal == 0:
				sum += 0
			case firstMal > 0:
				cone := float64(a.ring.Dist(path[firstMal-1], target))
				sum += min(math.Log2(math.Max(2, cone)), idealHon)
			default:
				sum += idealHon
			}
			continue
		}

		var linkedReal []int
		for i, q := range path {
			if link.linkable[i] {
				linkedReal = append(linkedReal, q)
			}
		}
		// Linkable dummies also enter the distance computation (Eq. 6
		// uses Q^l; dummies can only blur it).
		minD := a.ring.N()
		for _, q := range linkedReal {
			if d := a.ring.Dist(q, target); d < minD {
				minD = d
			}
		}
		for i := 0; i < cfg.Dummies; i++ {
			dl := a.sampleDummyLink()
			if dl {
				if d := rng.Intn(a.ring.N()); d < minD {
					minD = d
				}
			}
		}

		if len(linkedReal) == 0 {
			// Eq. (5): no linkable real query.
			if link.iObserved {
				pIObs := a.pInitiatorObserved()
				others := binomial(rng, int(float64(concurrent)*(1-cfg.F)), pIObs)
				sum += math.Log2(float64(1 + others))
			} else {
				sum += idealHon
			}
			continue
		}

		// Eqs. (6)–(7): weight every concurrent lookup with a linkable
		// query by ξ of its minimum linkable-query distance to T.
		weights := []float64{a.xi.at(minD)}
		for j := 0; j < concurrent-1; j++ {
			if rng.Float64() < cfg.F {
				continue // malicious initiators are excluded from the set
			}
			other := a.sampleQueryLinkability(a.sampleHopCount())
			m := 0
			for _, b := range other.linkable {
				if b {
					m++
				}
			}
			if m == 0 {
				continue
			}
			// This lookup's queries sit at positions unrelated to T.
			od := a.ring.N()
			for k := 0; k < m; k++ {
				if d := rng.Intn(a.ring.N()); d < od {
					od = d
				}
			}
			weights = append(weights, a.xi.at(od))
		}
		sum += entropyOfWeights(weights)
	}
	return sum / float64(cfg.Trials)
}

// pInitiatorObserved returns the per-lookup probability that the scheme
// exposes the initiator's identity somewhere.
func (a *Analyzer) pInitiatorObserved() float64 {
	f := a.cfg.F
	switch a.cfg.Scheme {
	case SchemeOctopus:
		return 1 - (1-f)*((1-f)*(1-f)) // A or a walk's first hops
	case SchemeNISAN:
		return 1 - math.Pow(1-f, 8)
	case SchemeTorsk:
		return 1 - (1-f)*(1-f)
	case SchemeChord:
		return f
	}
	return f
}

// sampleDummyLink reports whether one dummy query is linkable to I under
// the current scheme (only Octopus sends dummies).
func (a *Analyzer) sampleDummyLink() bool {
	if a.cfg.Scheme != SchemeOctopus || a.cfg.Dummies == 0 {
		return false
	}
	f := a.cfg.F
	rng := a.rng
	aMal := rng.Float64() < f // approximation: shared-A resampled per dummy
	cMal := rng.Float64() < f
	dMal := rng.Float64() < f
	eMal := rng.Float64() < f
	return (dMal || eMal) && aMal && cMal
}
