//go:build !race

package chord

import "testing"

// TestVerifySigAllocatesNothing: the signed bytes are built in a pooled
// buffer and SimScheme compares in place. Not under -race, where sync.Pool
// drops a quarter of what it is given.
func TestVerifySigAllocatesNothing(t *testing.T) {
	n := signedNode(t)
	rt := n.Table(true, true)
	scheme, key := n.ident.Scheme, n.ident.Key.Public
	if !rt.VerifySig(scheme, key) {
		t.Fatal("table does not verify")
	}
	if allocs := testing.AllocsPerRun(200, func() { rt.VerifySig(scheme, key) }); allocs != 0 {
		t.Errorf("VerifySig allocates %v times per call, want 0", allocs)
	}
	// Sign: the signature, nothing else.
	if allocs := testing.AllocsPerRun(200, func() { _ = rt.Sign(scheme, n.ident.Key) }); allocs != 1 {
		t.Errorf("Sign allocates %v times per call, want 1", allocs)
	}
}
