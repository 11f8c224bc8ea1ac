//go:build !race

package chord

import (
	"bytes"
	"testing"

	"github.com/octopus-dht/octopus/internal/transport"
)

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

// TestTableAllocatesOnlyItsSignature: on unchanged routing state Table
// serves the node's snapshot, so its one allocation is the signature.
func TestTableAllocatesOnlyItsSignature(t *testing.T) {
	n := signedNode(t)
	n.Table(true, true)
	if allocs := testing.AllocsPerRun(200, func() { n.Table(true, true) }); allocs != 1 {
		t.Errorf("Table allocates %v times per call on unchanged state, want 1", allocs)
	}
}

// TestTableCodecAllocations pins the codec on the message that dominates the
// wire, a signed lookup table of 12 fingers and 6 successors: encoding into a
// reused buffer and Size() allocate nothing; Decode and DecodeBorrowed on a
// pooled Reader each allocate five times: fingers, exponents, successors,
// signature and the interface box. Not under
// -race, for the pooled writers and readers.
func TestTableCodecAllocations(t *testing.T) {
	resp := GetTableResp{Table: goldenTables()[0].table}
	resp.Table.Sig = bytes.Repeat([]byte{7}, 40)
	var msg transport.Message = resp
	wire, err := transport.EncodeTo(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("EncodeTo", func(t *testing.T) {
		buf := make([]byte, 0, len(wire))
		encode := func() {
			var err error
			if buf, err = transport.EncodeTo(buf[:0], msg); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(200, encode); a != 0 {
			t.Errorf("EncodeTo allocates %v times per call, want 0", a)
		}
		if !bytes.Equal(buf, wire) {
			t.Error("re-encoding into a reused buffer changed the bytes")
		}
	})
	t.Run("Decode", func(t *testing.T) {
		decode := func() {
			if _, err := transport.Decode(wire); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(200, decode); a != 5 {
			t.Errorf("Decode allocates %v times per call, want 5", a)
		}
	})
	t.Run("DecodeBorrowed", func(t *testing.T) {
		decode := func() {
			r := transport.AcquireReader(wire)
			if _, err := transport.DecodeBorrowed(r); err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		if a := testing.AllocsPerRun(200, decode); a != 5 {
			t.Errorf("DecodeBorrowed allocates %v times per call, want 5", a)
		}
	})
	t.Run("Size", func(t *testing.T) {
		if a := testing.AllocsPerRun(200, func() { _ = resp.Size() }); a != 0 {
			t.Errorf("Size allocates %v times per call, want 0", a)
		}
		if got := resp.Size(); got != len(wire) {
			t.Errorf("Size() = %d, want the %d bytes EncodeTo writes", got, len(wire))
		}
	})
}
