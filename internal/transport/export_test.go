package transport

// Registry returns every registered wire code with the zero value a reader
// starts from, for the registry-versus-PROTOCOL.md test.
func Registry() map[uint16]Wire { return registry }
