package chord

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

func goldenPeers(base uint64, n int) []Peer {
	ps := make([]Peer, n)
	for i := range ps {
		ps[i] = Peer{ID: id.ID(base + uint64(i)*0x0123456789abcdef), Addr: transport.Addr(1000 + 3*i)}
	}
	return ps
}

// goldenTables are the tables behind testdata/table_sign.golden: the three
// shapes the protocol signs — a lookup answer (12 fingers with exponents, 6
// successors), a stabilization answer (nil fingers and exponents) and the
// table of a node without a valid finger (empty, non-nil exponents).
func goldenTables() []struct {
	name  string
	table RoutingTable
} {
	owner := Peer{ID: 0xfeedfacecafebeef, Addr: 7}
	exps := make([]uint8, 12)
	for i := range exps {
		exps[i] = uint8(id.Bits - 12 + i)
	}
	return []struct {
		name  string
		table RoutingTable
	}{
		{"lookup", RoutingTable{
			Owner: owner, Timestamp: 90*time.Second + 17,
			Fingers: goldenPeers(0x1111, 12), FingerExps: exps,
			Successors: goldenPeers(0x2222, 6),
		}},
		{"stabilize", RoutingTable{
			Owner: owner, Timestamp: 2 * time.Second,
			Predecessors: goldenPeers(0x3333, 6),
		}},
		{"fingerless", RoutingTable{
			Owner: owner, Timestamp: time.Hour,
			Fingers: []Peer{}, FingerExps: []uint8{},
			Successors: goldenPeers(0x4444, 1), Predecessors: []Peer{},
		}},
	}
}

// TestTableSignGolden pins the bytes RoutingTable.Sign produces under
// SimScheme, and with them the canonical signed encoding: a table signed by
// one build must verify on every other.
func TestTableSignGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/table_sign.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sig, _ := strings.Cut(line, " ")
		want[name] = sig
	}
	scheme := xcrypto.SimScheme{}
	kp, err := scheme.GenerateKey(bytes.NewReader([]byte("golden-table-key")))
	if err != nil {
		t.Fatal(err)
	}
	tables := goldenTables()
	if len(want) != len(tables) {
		t.Errorf("golden file holds %d signatures, want %d", len(want), len(tables))
	}
	for _, c := range tables {
		rt := c.table
		if err := rt.Sign(scheme, kp); err != nil {
			t.Fatalf("%s: Sign: %v", c.name, err)
		}
		if got := hex.EncodeToString(rt.Sig); got != want[c.name] {
			t.Errorf("%s: signature %s, golden %s", c.name, got, want[c.name])
		}
		if !rt.VerifySig(scheme, kp.Public) {
			t.Errorf("%s: golden signature does not verify", c.name)
		}
	}
}
