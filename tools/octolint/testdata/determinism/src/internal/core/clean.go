package core

import (
	"math/rand"
	"sort"

	"internal/transport"
)

// SeededDraw derives randomness from the run seed: deterministic replay.
func SeededDraw(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// EncodeSorted is the sanctioned collect-then-sort pattern: the map's
// iteration order never reaches the encoder.
func (m Table) EncodeSorted(c *transport.Codec) {
	keys := make([]uint64, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		c.U64(&k)
	}
}
