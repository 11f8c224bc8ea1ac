package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// refState is a lookup's inputs as its rules name them: the tier's seeds in
// the order the tier returned them, the peers tables named in the order they
// were absorbed, and the identifiers queried so far.
type refState struct {
	self, key, closest id.ID
	seeds, learned     []chord.Peer
	queried            map[id.ID]bool
}

// refBestUnqueried is the query choice as first written, over the candidate
// set as the rules build it — every seed, a later seed's address replacing an
// earlier one's, then every peer a table named whose identifier no seed and no
// earlier table named — and a scan of that whole set for the unqueried peer
// inside (closestQueried, key) that lies furthest clockwise from the node
// itself. It is the reference the production bestUnqueried is compared
// against.
func refBestUnqueried(r refState) (chord.Peer, bool) {
	set := map[id.ID]chord.Peer{}
	for _, p := range r.seeds {
		set[p.ID] = p
	}
	for _, p := range r.learned {
		if _, named := set[p.ID]; !named {
			set[p.ID] = p
		}
	}
	var best chord.Peer
	var bestDist uint64
	found := false
	for x, p := range set {
		if r.queried[x] || !id.StrictBetween(x, r.closest, r.key) {
			continue
		}
		if d := r.self.Distance(x); !found || d > bestDist {
			best, bestDist, found = p, d, true
		}
	}
	return best, found
}

// engine builds a lookup in the state r describes through the engine's own
// paths: the tier hands it the seeds by reference, learn takes each peer a
// table named, and issue marks each queried identifier inside
// (closestQueried, key); a query outside it no longer matters to the choice.
func (r refState) engine(padded bool) *tableLookup {
	self := chord.Peer{ID: r.self, Addr: 0}
	tl := &tableLookup{
		n:              &Node{Chord: &chord.Node{Self: self}, tier: seedTier{seeds: r.seeds}},
		key:            r.key,
		alpha:          1,
		padded:         padded,
		closestQueried: chord.Peer{ID: r.closest, Addr: 0},
		send:           func(chord.Peer, func(transport.Message, error)) bool { return true },
	}
	tl.seed()
	for _, p := range r.learned {
		tl.learn(p)
	}
	queried := slices.Sorted(maps.Keys(r.queried))
	for _, x := range queried {
		if r.queried[x] && id.StrictBetween(x, r.closest, r.key) {
			tl.issue(chord.Peer{ID: x, Addr: 0})
		}
	}
	return tl
}

// refOf is the state of a lookup that knows ids, which need not be sorted or
// distinct; the i-th peer gets address i+1. seedsAt says which positions of
// ids the tier named, the rest coming from tables; queried marks positions of
// the sorted, de-duplicated set.
func refOf(self, key, closest id.ID, ids []id.ID, seedsAt, queried func(i int) bool) refState {
	r := refState{self: self, key: key, closest: closest, queried: map[id.ID]bool{}}
	for i, x := range ids {
		p := chord.Peer{ID: x, Addr: transport.Addr(i + 1)}
		if seedsAt(i) {
			r.seeds = append(r.seeds, p)
		} else {
			r.learned = append(r.learned, p)
		}
	}
	set := slices.Compact(slices.Sorted(slices.Values(ids)))
	for i, x := range set {
		r.queried[x] = queried(i)
	}
	return r
}

// checkBestUnqueried compares the engine's choice with the reference's, on an
// unpadded lookup, which reads its seeds in place, and on a padded one, which
// merges them. It returns the reference's choice.
func checkBestUnqueried(t *testing.T, r refState) (chord.Peer, bool) {
	t.Helper()
	want, wantOK := refBestUnqueried(r)
	for _, padded := range []bool{false, true} {
		tl := r.engine(padded)
		if !padded && len(r.seeds) > 0 && unsafe.SliceData(tl.seeds) != unsafe.SliceData(r.seeds) {
			t.Fatal("an unpadded lookup copied the seeds the tier handed it")
		}
		got, gotOK, _ := tl.bestUnqueried()
		if gotOK != wantOK || (wantOK && got != want) {
			t.Fatalf("padded %v: bestUnqueried = (%v, %v), the full scan says (%v, %v); self %v key %v closestQueried %v, seeds %v, learned %v",
				padded, got, gotOK, want, wantOK, r.self, r.key, r.closest, r.seeds, r.learned)
		}
	}
	return want, wantOK
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
			// Every candidate from tables, from the tier, and from both.
			for _, seedsAt := range []func(int) bool{none, all, odd} {
				checkBestUnqueried(t, refOf(c.self, c.key, c.closest, c.ids, seedsAt, c.queried))
			}
		})
	}
}

// TestBestUnqueriedRandom compares the two on random engine states that keep
// the engine's invariant: closestQueried starts as the node itself and only
// ever moves to a queried peer strictly inside (closestQueried, key), so it
// lies in [self, key) — anywhere at all when the key is the node's own
// identifier, where that interval is the whole ring. The candidates are split
// at random between tier seeds and table entries, and the draws also repeat
// the chosen seed later in the tier's list with another address, or have a
// table name it with another address: the later seed, and a seed over a
// table, must win.
func TestBestUnqueriedRandom(t *testing.T) {
	cases := 40000
	if testing.Short() {
		cases = 4000
	}
	rng := rand.New(rand.NewSource(19))
	repeated, shadowed := 0, 0
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
		seedShare := rng.Intn(4)
		r := refOf(self, key, closest, ids,
			func(int) bool { return rng.Intn(4) < seedShare },
			func(int) bool { return rng.Intn(4) < marks })
		want, ok := checkBestUnqueried(t, r)
		last := slices.IndexFunc(r.seeds, func(p chord.Peer) bool { return p == want })
		if !ok || last < 0 {
			continue
		}
		// The choice is a seed: name it again with another address, later
		// in the tier's list or in a table, and check again.
		later := chord.Peer{ID: want.ID, Addr: want.Addr + 1000}
		if i%2 == 0 {
			r.seeds = slices.Insert(slices.Clone(r.seeds), last+1+rng.Intn(len(r.seeds)-last), later)
			want = later
			repeated++
		} else {
			r.learned = slices.Insert(slices.Clone(r.learned), rng.Intn(len(r.learned)+1), later)
			shadowed++
		}
		if again, _ := checkBestUnqueried(t, r); again != want {
			t.Fatalf("the reference chose %v, want %v", again, want)
		}
	}
	if repeated < cases/20 || shadowed < cases/20 {
		t.Errorf("the choice was a repeated seed %d times and a seed a table also named %d times in %d cases; the check needs more of both",
			repeated, shadowed, cases)
	}
}
