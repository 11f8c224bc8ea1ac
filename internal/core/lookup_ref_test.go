package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// refBestUnqueried is the query choice as first written: a scan of the whole
// candidate set for the unqueried peer inside (closestQueried, key) that lies
// furthest clockwise from the node itself. It is the reference the production
// bestUnqueried is compared against.
func refBestUnqueried(tl *tableLookup) (int, bool) {
	self := tl.n.Chord.Self
	best, found := 0, false
	var bestDist uint64
	for i, c := range tl.cands {
		if c.queried || !id.StrictBetween(c.peer.ID, tl.closestQueried.ID, tl.key) {
			continue
		}
		d := self.ID.Distance(c.peer.ID)
		if !found || d > bestDist {
			best, bestDist, found = i, d, true
		}
	}
	return best, found
}

// refLookup is an engine holding exactly the state bestUnqueried reads. ids
// need not be sorted or distinct; queried marks the same positions of the
// sorted, de-duplicated set.
func refLookup(self, key, closest id.ID, ids []id.ID, queried func(i int) bool) *tableLookup {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	tl := &tableLookup{
		n:              &Node{Chord: &chord.Node{Self: chord.Peer{ID: self, Addr: 0}}},
		key:            key,
		closestQueried: chord.Peer{ID: closest, Addr: 0},
	}
	for i, x := range ids {
		tl.cands = append(tl.cands, candidate{peer: chord.Peer{ID: x, Addr: transport.Addr(i + 1)}, queried: queried(i)})
	}
	return tl
}

func checkBestUnqueried(t *testing.T, tl *tableLookup) {
	t.Helper()
	got, gotOK, _ := tl.bestUnqueried()
	want, wantOK := refBestUnqueried(tl)
	if gotOK != wantOK || (wantOK && got != want) {
		t.Fatalf("bestUnqueried = (%d, %v), the full scan says (%d, %v); self %v key %v closestQueried %v, %d candidates",
			got, gotOK, want, wantOK, tl.n.Chord.Self.ID, tl.key, tl.closestQueried.ID, len(tl.cands))
	}
}

func TestBestUnqueriedTable(t *testing.T) {
	none := func(int) bool { return false }
	all := func(int) bool { return true }
	odd := func(i int) bool { return i%2 == 1 }
	ring := []id.ID{100, 200, 300, 400, 500, 600, 700, 800, 900}
	top := id.ID(math.MaxUint64)
	cases := []struct {
		name               string
		self, key, closest id.ID
		ids                []id.ID
		queried            func(int) bool
	}{
		{"empty set", 100, 900, 100, nil, none},
		{"plain", 150, 850, 150, ring, none},
		{"every eligible peer queried", 150, 850, 150, ring, all},
		{"alternate peers queried", 150, 850, 150, ring, odd},
		{"closest moved up", 150, 850, 400, ring, none},
		{"closest is the last peer before the key", 150, 850, 800, ring, none},
		{"key is a candidate", 150, 800, 150, ring, none},
		{"key is a candidate, rest queried", 150, 800, 150, ring, func(i int) bool { return i != 7 }},
		{"key just after self", 150, 151, 150, ring, none},
		{"self is a candidate", 300, 850, 300, ring, none},
		{"key equals self and closestQueried", 450, 450, 450, ring, none},
		{"key equals self, closest moved", 450, 450, 700, ring, none},
		{"key equals self, closest just before it", 450, 450, 400, ring, none},
		{"key equals self which is a candidate", 400, 400, 400, ring, odd},
		{"interval wraps past 2^64", 700, 250, 700, ring, none},
		{"interval wraps, closest before the wrap", 700, 250, 900, ring, none},
		{"interval wraps, closest after the wrap", 700, 250, 100, ring, odd},
		{"set straddles 2^64", top - 5, 7, top - 5, []id.ID{top - 9, top - 3, top, 0, 1, 5, 7, 9}, none},
		{"set straddles 2^64, low half queried", top - 5, 7, top - 5, []id.ID{top - 9, top - 3, top, 0, 1, 5, 7, 9}, func(i int) bool { return i < 4 }},
		{"key 0", top - 5, 0, top - 3, []id.ID{top - 9, top - 3, top - 1, top, 0, 1}, none},
		{"nothing inside the interval", 150, 190, 150, ring, none},
		{"single peer inside", 150, 250, 150, ring, none},
		{"single peer, queried", 150, 250, 150, ring, func(i int) bool { return i == 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkBestUnqueried(t, refLookup(c.self, c.key, c.closest, c.ids, c.queried))
		})
	}
}

// TestBestUnqueriedRandom compares the two on random engine states that keep
// the engine's invariant: closestQueried starts as the node itself and only
// ever moves to a queried peer strictly inside (closestQueried, key), so it
// lies in [self, key) — anywhere at all when the key is the node's own
// identifier, where that interval is the whole ring.
func TestBestUnqueriedRandom(t *testing.T) {
	cases := 40000
	if testing.Short() {
		cases = 4000
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < cases; i++ {
		self := id.ID(rng.Uint64())
		// Identifiers drawn from a window of random width after a random
		// origin: narrow windows make dense sets with many ties to the key
		// and to self, and an origin near 2^64 makes sets that wrap.
		width := uint64(1) << uint(1+rng.Intn(63))
		origin := id.ID(rng.Uint64())
		if i%3 == 0 {
			origin = self.Sub(width / 2)
		}
		if i%5 == 0 {
			origin = id.ID(math.MaxUint64).Sub(rng.Uint64() % width)
		}
		ids := make([]id.ID, rng.Intn(301))
		for j := range ids {
			ids[j] = origin.Add(rng.Uint64() % width)
		}
		key := origin.Add(rng.Uint64() % width)
		switch {
		case i%7 == 0:
			key = self
		case i%7 == 1 && len(ids) > 0:
			key = ids[rng.Intn(len(ids))]
		case i%7 == 2:
			key = id.ID(rng.Uint64())
		}
		closest := self
		if span := self.Distance(key); i%2 == 1 {
			switch {
			case span == 0:
				closest = id.ID(rng.Uint64())
			case len(ids) > 0 && i%4 == 1:
				// A candidate, when one lies inside [self, key).
				if c := ids[rng.Intn(len(ids))]; self.Distance(c) < span {
					closest = c
				}
			default:
				closest = self.Add(rng.Uint64() % span)
			}
		}
		marks := rng.Intn(4) // queried share: none, a quarter, a half, three quarters
		checkBestUnqueried(t, refLookup(self, key, closest, ids, func(int) bool { return rng.Intn(4) < marks }))
	}
}
