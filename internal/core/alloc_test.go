package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
)

// TestHotPathsAllocateNothing pins three paths that run per walk hop, per
// finger of every verified table and per lookup answer: the phase-2 hop draw,
// the finger bound check and merging a verified table into a lookup.
func TestHotPathsAllocateNothing(t *testing.T) {
	t.Run("seededIndex", func(t *testing.T) {
		sum := 0
		if a := testing.AllocsPerRun(200, func() { sum += seededIndex(int64(sum)*0x9e3779b9, 2, 11) }); a != 0 {
			t.Errorf("seededIndex allocates %v times per call, want 0", a)
		}
	})
	t.Run("withinFingerBound", func(t *testing.T) {
		owner, fingers, bound := boundCheckFixture()
		for i, f := range fingers {
			if !withinFingerBound(owner, f, bound) {
				t.Fatalf("fixture finger %d is rejected", i)
			}
		}
		if a := testing.AllocsPerRun(200, func() {
			for _, f := range fingers {
				withinFingerBound(owner, f, bound)
			}
		}); a != 0 {
			t.Errorf("the bound check allocates %v times per table, want 0", a)
		}
	})
	t.Run("absorb", func(t *testing.T) {
		merge, tl := absorbFixture()
		i := 0
		if a := testing.AllocsPerRun(200, func() { merge(i); i++ }); a != 0 {
			t.Errorf("absorb allocates %v times per table, want 0", a)
		}
		if len(tl.cands) != 109 {
			t.Errorf("%d candidates after the merge, want the 100 and the table's 9 news", len(tl.cands))
		}
	})
}

// TestLookupHoldsOnlyWhatItKeeps pins what a §4.5 finger-update lookup in
// flight holds, since every node starts a dozen at once each FixFingersEvery
// boundary: room for the seeds it keeps, not for every seed the tier named,
// and no owner-evidence table until a successor list vouches for an owner.
func TestLookupHoldsOnlyWhatItKeeps(t *testing.T) {
	tl, sent := newCandidateLookup(9000, []chord.Peer{
		{ID: 3000, Addr: 1}, {ID: 12000, Addr: 2}, {ID: 5000, Addr: 3}, {ID: 500, Addr: 4}, {ID: 8000, Addr: 5},
	}, nil)
	tl.padded = false
	tl.step()
	if len(*sent) != 3 || len(tl.cands) != 3 || cap(tl.cands) != 3 {
		t.Errorf("%d queries sent, %d candidates in room for %d; want the 3 seeds inside (self, key) and room for them alone",
			len(*sent), len(tl.cands), cap(tl.cands))
	}
	if tl.ownerEvidence != nil {
		t.Errorf("a lookup no table has answered holds owner evidence %+v", *tl.ownerEvidence)
	}
	tl.recordOwnerCandidate(tableOf(chord.Peer{ID: 8000, Addr: 5}, 1, chord.Peer{ID: 9500, Addr: 6}))
	if tl.ownerEvidence == nil || tl.ownerEvidence.Owner.ID != 8000 || tl.ownerBest.ID != 9500 {
		t.Errorf("after 8000 vouched for 9500: best %v, evidence %+v", tl.ownerBest, tl.ownerEvidence)
	}
}

// BenchmarkSeededIndex measures one phase-2 hop draw at a table-sized width.
func BenchmarkSeededIndex(b *testing.B) {
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += seededIndex(int64(i)*0x9e3779b9, 1+i%3, 11)
	}
	if sum < 0 {
		b.Fatal("negative index")
	}
}

// boundCheckFixture is the top, a middle and the bottom finger of one owner,
// each a third of the bound past its finger target.
func boundCheckFixture() (owner chord.Peer, fingers [3]chord.Peer, bound uint64) {
	owner = chord.Peer{ID: 0x9e3779b97f4a7c15, Addr: 1}
	bound = gapBound(1000, 8)
	for i, slot := range []int{63, 58, 52} {
		fingers[i] = chord.Peer{ID: owner.ID.FingerTarget(slot).Add(bound / 3), Addr: 2}
	}
	return owner, fingers, bound
}

// BenchmarkBoundCheck is the finger bound check on the top, a middle and the
// bottom finger of one owner, as absorb and the walk run it on every finger of
// every verified table.
func BenchmarkBoundCheck(b *testing.B) {
	owner, fingers, bound := boundCheckFixture()
	b.ReportAllocs()
	accepted := 0
	for i := 0; i < b.N; i++ {
		for _, f := range fingers {
			if withinFingerBound(owner, f, bound) {
				accepted++
			}
		}
	}
	if accepted != 3*b.N {
		b.Fatalf("%d of %d fingers accepted", accepted, 3*b.N)
	}
}

// absorbFixture is a lookup that already knows 100 peers, and eight verified
// tables of 12 fingers and 6 successors, half of them news to it. merge(i)
// restores the 100 and absorbs table i mod 8, so successive merges are not one
// memorised sequence of branches.
func absorbFixture() (merge func(i int), tl *tableLookup) {
	cfg := DefaultConfig()
	cfg.EstimatedSize = 1000
	self := chord.Peer{ID: 1 << 40, Addr: 0}
	tl = &tableLookup{n: &Node{cfg: cfg, Chord: &chord.Node{Self: self}}, key: self.ID.Sub(1), padded: true, seeded: true}
	rng := rand.New(rand.NewSource(19))
	gap := gapBound(1000, 1)
	var tables [8]chord.RoutingTable
	for t := range tables {
		owner := chord.Peer{ID: id.ID(rng.Uint64()), Addr: 1}
		tables[t].Owner = owner
		for slot := 52; slot < 64; slot++ {
			tables[t].Fingers = append(tables[t].Fingers, chord.Peer{ID: owner.ID.FingerTarget(slot).Add(gap / 2), Addr: 2})
		}
		for k := 1; k <= 6; k++ {
			tables[t].Successors = append(tables[t].Successors, chord.Peer{ID: owner.ID.Add(uint64(k) * gap), Addr: 3})
		}
		for i, p := range append(slices.Clone(tables[t].Fingers), tables[t].Successors...) {
			if i%2 == 0 {
				tl.learn(p, false)
			}
		}
	}
	for len(tl.cands) < 100 {
		tl.learn(chord.Peer{ID: id.ID(rng.Uint64()), Addr: 4}, false)
	}
	known := slices.Clone(tl.cands)
	tl.cands = make([]candidate, 0, 4*len(known))
	return func(i int) {
		tl.cands = append(tl.cands[:0], known...)
		t := &tables[i%len(tables)]
		tl.absorb(t.Owner, *t)
	}, tl
}

// BenchmarkLookupAbsorb merges one verified table into a lookup that already
// knows 100 peers (absorbFixture).
func BenchmarkLookupAbsorb(b *testing.B) {
	merge, tl := absorbFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge(i)
	}
	if len(tl.cands) != 109 {
		b.Fatalf("%d candidates after the merge, want the 100 and the table's 9 news", len(tl.cands))
	}
}
