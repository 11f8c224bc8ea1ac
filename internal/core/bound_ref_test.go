package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
)

// refWithinFingerBound is the bound check as first written: one
// FingerTarget/Distance pair per ideal position owner+2^i, accepting f when it
// trails any of the 64 by at most bound. It is the reference the production
// withinFingerBound is compared against.
func refWithinFingerBound(owner, f chord.Peer, bound uint64) bool {
	if !f.Valid() || f.ID == owner.ID {
		return false
	}
	for i := 0; i < id.Bits; i++ {
		if owner.ID.FingerTarget(i).Distance(f.ID) <= bound {
			return true
		}
	}
	return false
}

// checkBound compares production and reference for the finger at the given
// clockwise distance from owner.
func checkBound(t *testing.T, owner id.ID, dist, bound uint64) {
	t.Helper()
	o, f := chord.Peer{ID: owner, Addr: 1}, chord.Peer{ID: owner.Add(dist), Addr: 2}
	if got, want := withinFingerBound(o, f, bound), refWithinFingerBound(o, f, bound); got != want {
		t.Fatalf("withinFingerBound(owner %v, distance %#x, bound %#x) = %v, the 64-step reference says %v",
			owner, dist, bound, got, want)
	}
}

// boundsUnderTest are the bounds every distance is tried against: none, tiny,
// the paper-mode bound of a 1000-node ring, every power of two and its
// neighbours, and bounds of 2^63 and more, where the ideal position that wraps
// past the owner comes into reach.
func boundsUnderTest() []uint64 {
	out := []uint64{0, 1, 2, 1000, gapBound(1000, 8), gapBound(2, 1), gapBound(100000, 8),
		1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<63 + 1<<62, math.MaxUint64 - 1, math.MaxUint64}
	for k := 0; k < 64; k++ {
		out = append(out, 1<<k-1, 1<<k, 1<<k+1)
	}
	return out
}

func TestWithinFingerBoundTable(t *testing.T) {
	dists := []uint64{0, 3, 5, 6, 7, 1000, math.MaxUint64 - 1, math.MaxUint64}
	for k := 0; k < 64; k++ {
		dists = append(dists, 1<<k-1, 1<<k, 1<<k+1, 1<<k+1<<k/2, 1<<k+gapBound(1000, 8), 1<<k+gapBound(1000, 8)+1)
	}
	owners := []id.ID{0, 1, 1 << 63, math.MaxUint64, 0x9e3779b97f4a7c15}
	for _, owner := range owners {
		for _, d := range dists {
			for _, b := range boundsUnderTest() {
				checkBound(t, owner, d, b)
			}
		}
	}
	o := chord.Peer{ID: 77, Addr: 1}
	if withinFingerBound(o, chord.NoPeer, math.MaxUint64) || refWithinFingerBound(o, chord.NoPeer, math.MaxUint64) {
		t.Error("an invalid peer is never within bound")
	}
	if withinFingerBound(o, chord.Peer{ID: 77, Addr: 9}, math.MaxUint64) {
		t.Error("the owner's own identifier is never within bound")
	}
}

func TestWithinFingerBoundRandom(t *testing.T) {
	triples := 1 << 20
	if testing.Short() {
		triples = 1 << 16
	}
	rng := rand.New(rand.NewSource(19))
	bounds := boundsUnderTest()
	for i := 0; i < triples; i++ {
		owner := id.ID(rng.Uint64())
		// A distance of random magnitude: uniform draws would leave every
		// finger below the top few untested.
		dist := rng.Uint64() >> uint(rng.Intn(64))
		switch i % 8 {
		case 0: // at, just before or just after an ideal position
			dist = uint64(1)<<uint(rng.Intn(64)) + uint64(rng.Intn(3)) - 1
		case 1: // trailing an ideal position by about the paper-mode bound
			dist = uint64(1)<<uint(rng.Intn(64)) + gapBound(1000, 8) + uint64(rng.Intn(3)) - 1
		}
		var bound uint64
		switch i % 4 {
		case 0:
			bound = gapBound(1000, 8)
		case 1:
			bound = bounds[rng.Intn(len(bounds))]
		case 2: // the wrapping branch: bounds of 2^63 and more
			bound = 1<<63 + rng.Uint64()>>1
		default:
			bound = rng.Uint64() >> uint(rng.Intn(64))
		}
		checkBound(t, owner, dist, bound)
	}
}
