package core

import (
	"slices"
	"testing"

	"github.com/octopus-dht/octopus/internal/chord"
)

// TestOneHopTablesShareTheSeed: the nodes of one build share the seeded
// membership array until a node changes its table, and a node's change is
// never seen by another. Rewriting an entry with the value it holds is no
// change.
func TestOneHopTablesShareTheSeed(t *testing.T) {
	nw := buildTestNet(t, 1, 24, func(c *Config) { c.RoutingTier = TierOneHop })
	nw.Sim.Run(0) // the seeding callbacks; no timer has fired yet
	a, b, c := nw.Node(0).onehop, nw.Node(1).onehop, nw.Node(2).onehop
	sameArray := func(x, y *oneHopTier) bool { return &x.table[0] == &y.table[0] }
	if len(a.table) != 24 || !sameArray(a, b) || !sameArray(a, c) {
		t.Fatalf("seeded tables of %d, %d, %d peers not one array", len(a.table), len(b.table), len(c.table))
	}
	seeded := slices.Clone(b.table)

	c.upsert(c.table[5])
	c.apply(tierEvent{join: true, peer: c.table[7], ttl: 1})
	if !sameArray(b, c) {
		t.Error("rewriting an entry with its own value copied the table")
	}

	moved := a.table[3]
	moved.Addr += 100
	a.upsert(moved)
	if !sameArray(b, c) || sameArray(a, b) {
		t.Fatal("a write to one table must copy that table alone")
	}
	a.remove(a.table[9].ID)
	a.upsert(chord.Peer{ID: a.table[0].ID - 1, Addr: 99})
	if i, _ := a.find(moved.ID); len(a.table) != 24 || a.table[i] != moved || a.table[0].Addr != 99 {
		t.Errorf("the writer's table lost its own writes: %v", a.table)
	}
	if !slices.Equal(b.table, seeded) || !slices.Equal(c.table, seeded) {
		t.Error("another node sees the writer's changes")
	}

	b.remove(b.table[1].ID)
	if sameArray(b, c) || !slices.Equal(c.table, seeded) || len(b.table) != 23 {
		t.Error("a remove must copy the remover's table alone")
	}
}
