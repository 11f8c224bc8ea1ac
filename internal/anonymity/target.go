package anonymity

import (
	"math"
)

// Target anonymity H(T) per the paper's Appendix III (Eqs. 8–21). The
// precondition for compromising target anonymity is observing the
// initiator; given that, the adversary mounts the range-estimation attack
// on whatever queries it can attribute to I, with dummy queries forcing it
// to hedge across every consistent subset of its observations.

// obsQuery is one observed query position with its provenance.
type obsQuery struct {
	pos     int
	dummy   bool
	bLinked bool
	iLinked bool
}

// HTarget computes H(T) by Monte Carlo over sampled observations.
func (a *Analyzer) HTarget() float64 {
	cfg := a.cfg
	rng := a.rng
	idealFull := math.Log2(float64(cfg.N))
	concurrent := max(int(cfg.Alpha*float64(cfg.N)), 1)

	// Pre-estimate the probability that a random concurrent lookup has at
	// least one observed query linkable to a shared B relay (used by the
	// Eq. 15–17 case).
	pBLink := a.estimatePBLink(500)

	var sum float64
	for t := 0; t < cfg.Trials; t++ {
		init := rng.Intn(a.ring.N())
		target := rng.Intn(a.ring.N())
		key := a.ring.ID(target)
		path := a.ring.LookupPath(init, key)
		link := a.sampleQueryLinkability(len(path))

		if !link.iObserved {
			sum += idealFull // Eq. 8's o_n term
			continue
		}

		switch cfg.Scheme {
		case SchemeNISAN:
			sum += a.nisanTarget(path, link, idealFull)
			continue
		case SchemeTorsk:
			sum += a.torskTarget(link, idealFull, concurrent)
			continue
		case SchemeChord:
			// iObserved means the first hop was malicious; the key —
			// and hence the target — is in the clear.
			sum += 0
			continue
		}

		// --- Octopus ---
		obs := a.assembleObservations(path, link)
		hm := a.hm(concurrent)

		var linked []obsQuery
		realLinked := 0
		for _, q := range obs {
			if q.iLinked {
				linked = append(linked, q)
				if !q.dummy {
					realLinked++
				}
			}
		}
		switch {
		case len(linked) > 0 && realLinked > 0:
			// Eq. 9–13: range estimation hedged over consistent
			// subsets.
			sum += a.subsetEntropy(linked, idealFull)
		case len(linked) > 0:
			// Every linkable query is a dummy (Eq. 9's first term).
			sum += hm
		default:
			// Eq. 14: no linkable query at all.
			var bObserved, anyObserved []obsQuery
			for _, q := range obs {
				if q.bLinked {
					bObserved = append(bObserved, q)
				}
				anyObserved = append(anyObserved, q)
			}
			switch {
			case len(anyObserved) == 0:
				sum += hm // case 1
			case len(bObserved) > 0:
				// case 2 (Eqs. 15–17): the adversary groups queries
				// by shared B and hedges uniformly across the
				// concurrent lookups with B-linkable queries.
				realB := 0
				for _, q := range bObserved {
					if !q.dummy {
						realB++
					}
				}
				if realB == 0 {
					sum += hm
					break
				}
				others := binomial(rng, concurrent-1, pBLink)
				own := a.subsetEntropy(bObserved, idealFull)
				h := min(math.Log2(float64(1+others))+own, idealFull)
				sum += cfg.F*math.Log2(math.Max(1, float64(binomial(rng, concurrent, cfg.F)))) +
					(1-cfg.F)*h
			default:
				// case 3 (Eqs. 18–21): isolated observations; each
				// query yields a near-ring-wide range, hedged over
				// every observed query of every concurrent lookup.
				perLookup := a.expectedObservedPerLookup()
				total := float64(len(anyObserved)) + float64(concurrent-1)*perLookup
				h := min(math.Log2(math.Max(1, total))+a.gamma.rangeEntropy(a.ring.N()-1), idealFull)
				sum += cfg.F*math.Log2(math.Max(1, float64(binomial(rng, concurrent, cfg.F)))) +
					(1-cfg.F)*h
			}
		}
	}
	return sum / float64(cfg.Trials)
}

// hm is Eq. (10): the entropy when the linkable observations carry no
// positional information — the target is either an unknown honest node or
// one of the observed malicious targets.
func (a *Analyzer) hm(concurrent int) float64 {
	f := a.cfg.F
	malTargets := binomial(a.rng, concurrent, f)
	return (1-f)*math.Log2(float64(a.cfg.N)*(1-f)) +
		f*math.Log2(math.Max(1, float64(malTargets)))
}

// assembleObservations interleaves the lookup's real queries with dummy
// queries at uniform positions (the dummy targets mimic the global query
// distribution) in a plausible observation-time order.
func (a *Analyzer) assembleObservations(path []int, link queryLink) []obsQuery {
	rng := a.rng
	var out []obsQuery
	for i, p := range path {
		if !link.observed[i] {
			continue
		}
		out = append(out, obsQuery{
			pos:     p,
			bLinked: i < len(link.bLinked) && link.bLinked[i],
			iLinked: link.linkable[i],
		})
	}
	for d := 0; d < a.cfg.Dummies; d++ {
		f := a.cfg.F
		cMal := rng.Float64() < f
		dMal := rng.Float64() < f
		eMal := rng.Float64() < f
		if !(dMal || eMal) {
			continue // dummy unobserved
		}
		q := obsQuery{
			pos:     rng.Intn(a.ring.N()),
			dummy:   true,
			bLinked: cMal,
			iLinked: (link.aMal && cMal),
		}
		// Insert at a random point of the observation order.
		at := 0
		if len(out) > 0 {
			at = rng.Intn(len(out) + 1)
		}
		out = append(out, obsQuery{})
		copy(out[at+1:], out[at:])
		out[at] = q
	}
	return out
}

// subsetEntropy hedges the range-estimation attack over every consistent
// subset of the linkable observations (Eqs. 11–13): each subset s gets
// weight χ(|s|, largest hop) and contributes an estimation range whose
// internal entropy comes from γ. Ranges from distinct subsets rarely
// overlap, so the mixture entropy decomposes into the weight entropy plus
// the expected within-range entropy.
func (a *Analyzer) subsetEntropy(linked []obsQuery, ideal float64) float64 {
	positions := make([]int, len(linked))
	for i, q := range linked {
		positions[i] = q.pos
	}
	n := len(positions)
	var weights []float64
	var ranges []float64
	consider := func(mask int) {
		sub := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, positions[i])
			}
		}
		if len(sub) == 0 || !a.ring.SubsetConsistent(sub) {
			return
		}
		w := a.chi.at(len(sub), a.ring.LargestHop(sub))
		_, size := a.ring.EstimateRange(sub)
		weights = append(weights, w)
		ranges = append(ranges, a.gamma.rangeEntropy(size))
	}
	if n <= 12 {
		for mask := 1; mask < 1<<uint(n); mask++ {
			consider(mask)
		}
	} else {
		for s := 0; s < 4096; s++ {
			consider(1 + a.rng.Intn(1<<uint(n)-1))
		}
	}
	if len(weights) == 0 {
		return ideal
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	var h float64
	for i, w := range weights {
		p := w / wsum
		if p > 0 {
			h += -p*math.Log2(p) + p*ranges[i]
		}
	}
	return min(h, ideal)
}

// estimatePBLink estimates the probability that a random lookup has at
// least one observed B-linkable query.
func (a *Analyzer) estimatePBLink(samples int) float64 {
	hits := 0
	for s := 0; s < samples; s++ {
		link := a.sampleQueryLinkability(a.sampleHopCount())
		for i := range link.observed {
			if link.observed[i] && i < len(link.bLinked) && link.bLinked[i] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(samples)
}

// expectedObservedPerLookup estimates E[# observed queries] of one lookup.
func (a *Analyzer) expectedObservedPerLookup() float64 {
	total := 0
	const samples = 300
	for s := 0; s < samples; s++ {
		link := a.sampleQueryLinkability(a.sampleHopCount())
		for _, o := range link.observed {
			if o {
				total++
			}
		}
	}
	return float64(total) / samples
}

// nisanTarget: every observed query is attributable to I (source address),
// so the adversary range-estimates directly from the observed real queries
// — the paper's §2 range-estimation vulnerability that costs NISAN 11.3
// bits.
func (a *Analyzer) nisanTarget(path []int, link queryLink, ideal float64) float64 {
	var observed []int
	for i, p := range path {
		if link.observed[i] {
			observed = append(observed, p)
		}
	}
	if len(observed) == 0 {
		return ideal
	}
	_, size := a.ring.EstimateRange(observed)
	return min(a.gamma.rangeEntropy(size), ideal)
}

// torskTarget: a malicious buddy learns the key outright; otherwise the
// initiator's exposure (walk hops) does not reveal which lookup was its
// own, leaving near-full uncertainty.
func (a *Analyzer) torskTarget(link queryLink, ideal float64, concurrent int) float64 {
	if link.buddyMal {
		return 0
	}
	return a.hm(concurrent)
}
