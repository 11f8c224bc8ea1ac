package anonymity

import (
	"math"
	"math/rand"
)

// Pre-simulated distributions (§6.2–6.3): the paper obtains ξ, γ and χ "via
// pre-simulations of the lookup"; we do the same on the position-space ring.

// logBin buckets a positive distance into ~64 logarithmic bins.
func logBin(d int) int {
	if d <= 0 {
		return 0
	}
	return int(math.Log2(float64(d))) + 1
}

const nBins = 64

// distXi is ξ(x): the probability density that the minimum distance from a
// TRUE lookup's linkable queried nodes to its target is x (binned
// logarithmically; density per position within the bin).
type distXi struct {
	density [nBins]float64
	// noneP is the probability a true lookup has no linkable query.
	noneP float64
}

func (x *distXi) at(d int) float64 {
	return x.density[min(logBin(d), nBins-1)]
}

// distGamma is γ(i, z): where the target sits inside a TRUE estimation
// range, as deciles of the range size, conditioned on a log-binned range
// size.
type distGamma struct {
	// dec[zbin][decile] is P(target in that decile | z).
	dec [nBins][10]float64
	// entropyCache[zbin] is the entropy (bits) of the target's position
	// within a range of that size under γ.
	entropyCache [nBins]float64
}

// rangeEntropy returns H(T | T ∈ range of size z) under γ.
func (g *distGamma) rangeEntropy(z int) float64 {
	return g.entropyCache[min(logBin(z), nBins-1)]
}

// distChi is χ(x, y): the joint probability that a TRUE linkable set has x
// queries and largest hop in log bin y.
type distChi struct {
	p map[[2]int]float64
}

func (c *distChi) at(size, largestHop int) float64 {
	if v, ok := c.p[[2]int{size, logBin(largestHop)}]; ok {
		return v
	}
	return 1e-9 // unseen shapes get negligible (not zero) likelihood
}

// preSim runs `runs` simulated lookups under the scheme's per-query
// linkability probability and collects ξ, γ, χ plus the hop-count
// distribution.
func preSim(ring *Ring, rng *rand.Rand, runs int, linkProb func() []bool, queryCount func(q int) []bool) (*distXi, *distGamma, *distChi, []float64) {
	xi := &distXi{}
	gamma := &distGamma{}
	chi := &distChi{p: make(map[[2]int]float64)}
	var xiCounts [nBins]float64
	var xiBinWidth [nBins]float64
	for b := 0; b < nBins; b++ {
		lo := 1 << uint(b-1)
		if b == 0 {
			lo = 0
		}
		hi := 1 << uint(b)
		xiBinWidth[b] = float64(hi - lo)
		if b == 0 {
			xiBinWidth[b] = 1
		}
	}
	var gammaCounts [nBins][10]float64
	hopHist := make([]float64, 0, 64)
	none := 0
	total := 0

	for r := 0; r < runs; r++ {
		init := rng.Intn(ring.N())
		key := rng.Uint64()
		owner := ring.Owner(key)
		path := ring.LookupPath(init, key)
		for len(hopHist) <= len(path) {
			hopHist = append(hopHist, 0)
		}
		hopHist[len(path)]++

		linkable := queryCount(len(path))
		var linked []int
		for i, q := range path {
			if i < len(linkable) && linkable[i] {
				linked = append(linked, q)
			}
		}
		total++
		if len(linked) == 0 {
			none++
			continue
		}
		// ξ: min distance from linked queries to the target.
		minD := ring.N()
		for _, q := range linked {
			if d := ring.Dist(q, owner); d < minD {
				minD = d
			}
		}
		xiCounts[min(logBin(minD), nBins-1)]++
		// χ: subset shape of the true linkable set.
		chi.p[[2]int{len(linked), logBin(ring.LargestHop(linked))}]++
		// γ: the target's position inside the true estimation range
		// (closed at the lower end: the last query may be the owner).
		lo, size := ring.EstimateRange(linked)
		loc := ring.Dist(lo, owner)
		if loc >= 0 && loc <= size {
			zb := min(logBin(size), nBins-1)
			dec := min(loc*10/(size+1), 9)
			gammaCounts[zb][dec]++
		}
	}

	// Normalize ξ into densities.
	linkedRuns := float64(total - none)
	if linkedRuns > 0 {
		for b := 0; b < nBins; b++ {
			xi.density[b] = xiCounts[b] / linkedRuns / xiBinWidth[b]
		}
	}
	xi.noneP = float64(none) / float64(total)
	// Normalize χ.
	for k := range chi.p {
		chi.p[k] /= linkedRuns
	}
	// Normalize γ and cache per-bin entropies.
	for zb := 0; zb < nBins; zb++ {
		var sum float64
		for d := 0; d < 10; d++ {
			sum += gammaCounts[zb][d]
		}
		z := float64(int(1) << uint(zb))
		if sum == 0 {
			// Unobserved range sizes: fall back to uniform within the
			// range.
			for d := 0; d < 10; d++ {
				gamma.dec[zb][d] = 0.1
			}
			gamma.entropyCache[zb] = math.Log2(math.Max(1, z))
			continue
		}
		var h float64
		for d := 0; d < 10; d++ {
			p := gammaCounts[zb][d] / sum
			gamma.dec[zb][d] = p
			if p > 0 {
				// Entropy of the decile choice plus uniform spread
				// within the decile.
				h += -p*math.Log2(p) + p*math.Log2(math.Max(1, z/10))
			}
		}
		gamma.entropyCache[zb] = h
	}
	// Normalize hop histogram.
	for i := range hopHist {
		hopHist[i] /= float64(total)
	}
	_ = linkProb
	return xi, gamma, chi, hopHist
}
