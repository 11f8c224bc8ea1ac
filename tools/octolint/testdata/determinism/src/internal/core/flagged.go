package core

import (
	"math/rand"
	"time"

	"internal/transport"
)

// Clock reads the wall clock where the virtual clock must rule.
func Clock() time.Time {
	return time.Now() // want "time.Now in a seeded package"
}

// GlobalDraw uses the process-wide entropy-seeded source.
func GlobalDraw(n int) int {
	return rand.Intn(n) // want "global math/rand.Intn draws from the process-wide entropy-seeded source"
}

// TimeSeeded seeds a source from the clock: nondeterministic AND
// recoverable by an attacker who can bound the start time.
func TimeSeeded() *rand.Rand {
	src := rand.NewSource(time.Now().UnixNano()) // want "RNG seeded from the wall clock" "time.Now in a seeded package"
	return rand.New(src)
}

// Table is a map-backed structure with a wire encoding.
type Table struct {
	Entries map[uint64]uint64
}

// Code writes the table in map order: different bytes every run. Taking
// the codec is what marks it: the loop itself only calls a helper.
func (m Table) Code(c *transport.Codec) {
	for k := range m.Entries { // want "map iteration in a function that feeds encoding"
		codeKey(c, k)
	}
}

func codeKey(c *transport.Codec, k uint64) { c.U64(&k) }
