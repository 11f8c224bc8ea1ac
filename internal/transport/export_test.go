package transport

// Registry returns every registered wire code with its decoder, for the
// registry-versus-PROTOCOL.md test.
func Registry() map[uint16]func(*Reader) Wire {
	out := make(map[uint16]func(*Reader) Wire, len(decoders))
	for code, info := range decoders {
		out[code] = info.dec
	}
	return out
}
