// Package id implements identifier arithmetic on the Chord ring used by every
// DHT in this repository (Chord, Halo, and Octopus).
//
// Identifiers are unsigned 64-bit integers on a ring of size 2^64. All
// arithmetic wraps modulo 2^64, which the Go uint64 type provides natively.
// The paper's networks hold at most 10^6 nodes, so a 64-bit space keeps the
// collision probability negligible (< 3·10^-8 for N = 10^6) while keeping the
// hot-path arithmetic allocation-free.
package id

import (
	"crypto/sha256"
	"encoding/binary"
	"strconv"
)

// ID is a point on the Chord identifier ring of size 2^64.
type ID uint64

// Bits is the width of the identifier space in bits.
const Bits = 64

// FromBytes hashes an arbitrary byte string onto the ring using SHA-256
// truncated to 64 bits. It is how keys and node identities obtain ring
// positions.
func FromBytes(b []byte) ID {
	sum := sha256.Sum256(b)
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// FromString hashes a string key onto the ring.
func FromString(s string) ID {
	return FromBytes([]byte(s))
}

// String renders the identifier as a fixed-width hexadecimal string.
func (x ID) String() string {
	const hexDigits = 16
	s := strconv.FormatUint(uint64(x), 16)
	for len(s) < hexDigits {
		s = "0" + s
	}
	return s
}

// Distance returns the clockwise distance from x to y on the ring, i.e. the
// number of steps needed to walk from x to y in the direction of increasing
// identifiers. Distance(x, x) == 0.
func (x ID) Distance(y ID) uint64 {
	return uint64(y) - uint64(x)
}

// CounterDistance returns the anti-clockwise distance from x to y, i.e. the
// clockwise distance from y to x.
func (x ID) CounterDistance(y ID) uint64 {
	return uint64(x) - uint64(y)
}

// Add returns the identifier d steps clockwise from x.
func (x ID) Add(d uint64) ID {
	return ID(uint64(x) + d)
}

// Sub returns the identifier d steps anti-clockwise from x.
func (x ID) Sub(d uint64) ID {
	return ID(uint64(x) - d)
}

// FingerTarget returns the ideal identifier of the i-th finger of node x,
// namely x + 2^i (mod 2^64), for 0 <= i < Bits. Octopus and the baselines
// use the top `fingers` entries of this ladder (see chord.Config.Fingers).
func (x ID) FingerTarget(i int) ID {
	if i < 0 || i >= Bits {
		return x
	}
	return x.Add(1 << uint(i))
}

// Between reports whether x lies in the half-open clockwise interval (a, b].
// This is Chord's successorship test: key k is owned by node n iff
// Between(k, pred(n), n). When a == b the interval is the entire ring
// excluding a (every x != a satisfies it), matching Chord's single-node case.
func Between(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return a < x && x <= b
	}
	return x > a || x <= b
}

// StrictBetween reports whether x lies in the open clockwise interval (a, b).
func StrictBetween(x, a, b ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// ClosestPreceding returns the element of candidates with the greatest
// clockwise distance from base that still strictly precedes key (i.e. lies in
// the open interval (base, key)). It returns base itself and false when no
// candidate qualifies. It is the core routing decision of every lookup in the
// repository.
func ClosestPreceding(base, key ID, candidates []ID) (ID, bool) {
	best := base
	found := false
	var bestDist uint64
	for _, c := range candidates {
		if !StrictBetween(c, base, key) {
			continue
		}
		d := base.Distance(c)
		if !found || d > bestDist {
			best, bestDist, found = c, d, true
		}
	}
	return best, found
}
