// Package transport is a fixture stub of the repo's wire codec surface:
// just enough for determinism's Codec sink detection.
package transport

// Codec is the wire codec stub.
type Codec struct{}

// U64 codes *p.
func (c *Codec) U64(p *uint64) {}
