// Package anonymity reproduces the paper's §6 anonymity analysis: the
// entropy H(I) of the lookup initiator and H(T) of the lookup target under
// a colluding fraction f, computed by probabilistic modelling with the help
// of simulation (the paper's own approach — its authors wrote two small C++
// simulators for exactly this).
//
// The package works in position space: a static ring of N nodes (the paper
// assumes a static network for the worst-case analysis, §6) on which
// iterative full-table lookups are simulated to obtain query-position
// traces. The adversary's observation process (which relays/queried nodes
// are malicious, what is linkable to whom) is layered on top per scheme:
// Octopus, NISAN, Torsk, and recursive Chord. Entropies follow Eqs. (1)–(21)
// via Monte Carlo over observations, with the pre-simulated distributions
// ξ (min linkable-query distance), γ (target position within an estimation
// range), and χ (linkable-subset shape) estimated from the same lookup
// model.
package anonymity

import (
	"math/rand"
	"sort"
)

// Ring is a static network in position space: n sorted random identifiers.
type Ring struct {
	ids []uint64
	n   int
	// fingersExp lists the finger exponents every node maintains (top
	// octaves of the ring, wide enough to cover any n).
	fingerExps []uint
	succListK  int
}

// NewRing draws n distinct identifiers.
func NewRing(n int, succListK int, rng *rand.Rand) *Ring {
	ids := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(ids) < n {
		v := rng.Uint64()
		if !seen[v] {
			seen[v] = true
			ids = append(ids, v)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Fingers span from just above the expected gap up to half the ring,
	// mirroring the useful (distinct) fingers of a real deployment.
	exps := make([]uint, 0, 64-12)
	for e := uint(12); e < 64; e++ {
		exps = append(exps, e)
	}
	return &Ring{ids: ids, n: n, fingerExps: exps, succListK: succListK}
}

// N returns the population size.
func (r *Ring) N() int { return r.n }

// ID returns the identifier at position i.
func (r *Ring) ID(i int) uint64 { return r.ids[((i%r.n)+r.n)%r.n] }

// Owner returns the position owning key: the first node clockwise at or
// after key.
func (r *Ring) Owner(key uint64) int {
	i := sort.Search(r.n, func(i int) bool { return r.ids[i] >= key })
	if i == r.n {
		return 0
	}
	return i
}

// Dist returns the clockwise distance in positions from i to j.
func (r *Ring) Dist(i, j int) int {
	d := (j - i) % r.n
	if d < 0 {
		d += r.n
	}
	return d
}

// fingerOf returns the position of node i's finger at exponent e:
// owner(id_i + 2^e).
func (r *Ring) fingerOf(i int, e uint) int {
	return r.Owner(r.ids[i] + 1<<e)
}

// bestNext returns the position a full-table lookup standing at node `cur`
// jumps to next for `key`, considering cur's fingers and successor list,
// and whether the owner is already within cur's successor list.
func (r *Ring) bestNext(cur int, key uint64) (next int, done bool) {
	owner := r.Owner(key)
	if d := r.Dist(cur, owner); d <= r.succListK {
		return owner, true
	}
	// The best candidate strictly preceding the owner, maximally far
	// clockwise from cur. Successor-list entries cover distances 1..k;
	// fingers cover the octaves.
	best := cur
	bestDist := 0
	consider := func(p int) {
		dOwner := r.Dist(cur, owner)
		dp := r.Dist(cur, p)
		if dp == 0 || dp >= dOwner {
			// p is at/after the owner (or is cur): not a preceding hop.
			// dp == dOwner means p IS the owner — handled by succ list
			// only, since querying the owner itself would overshoot in
			// table-lookup terms; still allow it as final hop below.
			if dp == dOwner {
				if dp > bestDist {
					best, bestDist = p, dp
				}
			}
			return
		}
		if dp > bestDist {
			best, bestDist = p, dp
		}
	}
	for _, e := range r.fingerExps {
		consider(r.fingerOf(cur, e))
	}
	for s := 1; s <= r.succListK; s++ {
		consider((cur + s) % r.n)
	}
	if bestDist == 0 {
		return owner, true
	}
	return best, false
}

// LookupPath simulates an iterative full-table lookup from initiator init
// toward key, returning the positions of the queried nodes in order. The
// final queried node's successor list contains the owner. This models both
// the Octopus anonymous lookup and the NISAN lookup (identical convergence;
// they differ only in who contacts whom).
func (r *Ring) LookupPath(init int, key uint64) []int {
	var queried []int
	cur, done := r.bestNext(init, key)
	for hop := 0; hop < 128; hop++ {
		queried = append(queried, cur)
		if done || r.Dist(cur, r.Owner(key)) <= r.succListK {
			break
		}
		cur, done = r.bestNext(cur, key)
	}
	return queried
}

// bestFingerToward returns node cur's farthest finger that does not pass
// the position `toward`, with its exponent.
func (r *Ring) bestFingerToward(cur, toward int) (pos int, exp uint, ok bool) {
	limit := r.Dist(cur, toward)
	best := -1
	bestDist := 0
	var bestExp uint
	for _, e := range r.fingerExps {
		f := r.fingerOf(cur, e)
		d := r.Dist(cur, f)
		if d == 0 || d > limit {
			continue
		}
		if d > bestDist {
			best, bestDist, bestExp = f, d, e
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestExp, true
}

// EstimateRange mounts the range-estimation attack (Appendix III) on an
// ordered set of observed query positions for one lookup. The target lies
// at or after the last observed query ("nodes succeeding T will not be
// queried", so E_j is an inclusive lower bound — a table fetch may hit the
// owner itself); for the upper bound the adversary locally re-simulates the
// lookup between each pair of consecutive observed queries ("the adversary
// first decides the queried nodes between Ei and Ej by simulating the
// lookup from Ei to Ej") and caps the target below the next-larger finger
// of every virtual hop. It returns the closed range [lo, lo+size].
func (r *Ring) EstimateRange(queried []int) (lo, size int) {
	if len(queried) == 0 {
		return 0, r.n
	}
	last := queried[len(queried)-1]
	lo = last
	bound := r.n - 1 // full wrap
	for k := 0; k+1 < len(queried); k++ {
		cur, dst := queried[k], queried[k+1]
		for step := 0; step < 64 && cur != dst; step++ {
			next, exp, ok := r.bestFingerToward(cur, dst)
			if !ok || r.Dist(cur, next) == 0 {
				break // the remaining gap was covered by a successor list
			}
			// The true lookup jumped cur → next, so the target
			// precedes cur's next DISTINCT finger (in sparse regions
			// several exponents share one finger node).
			capNode := -1
			for e := exp + 1; e < 64; e++ {
				if f := r.fingerOf(cur, e); f != next {
					capNode = f
					break
				}
			}
			if capNode >= 0 {
				capPos := (capNode - 1 + r.n) % r.n
				bound = min(bound, r.Dist(last, capPos))
			}
			if next == cur {
				break
			}
			cur = next
		}
	}
	return lo, max(bound, 1)
}

// SubsetConsistent implements the dummy-filtering test (Appendix III): a
// candidate subset of observed positions can be the real query set only if
// walking it in observation order moves strictly clockwise toward a common
// target region. Positions must be supplied in observation (time) order.
func (r *Ring) SubsetConsistent(positions []int) bool {
	if len(positions) <= 1 {
		return true
	}
	first := positions[0]
	prevDist := 0
	for _, p := range positions[1:] {
		d := r.Dist(first, p)
		if d <= prevDist {
			return false // moved backwards: must contain a dummy
		}
		prevDist = d
	}
	return true
}

// LargestHop returns the largest position jump between consecutive entries
// of an ordered query subset — the paper's second χ characteristic.
func (r *Ring) LargestHop(positions []int) int {
	if len(positions) <= 1 {
		return 0
	}
	largest := 0
	for k := 0; k+1 < len(positions); k++ {
		if d := r.Dist(positions[k], positions[k+1]); d > largest {
			largest = d
		}
	}
	return largest
}
