package transport

// Registry returns every registered wire code with its decoder, for the
// registry-versus-PROTOCOL.md test.
func Registry() map[uint16]decoder { return decoders }
