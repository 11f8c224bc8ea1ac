package adversary

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/daemon"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

const openAttacksFile = "testdata/open_attacks.txt"

// openAttacks is the attack ratchet: every known hole in the implemented
// protocol, each mounted the way an attacker reaches it. run reports whether
// the attack succeeded; item is the ROADMAP.md item whose fix closes it.
var openAttacks = []struct {
	name string
	item int
	run  func(t *testing.T) bool
}{
	{"forge-table", 1, forgeTable},
	{"seed-keys", 16, seedKeys},
}

// TestOpenAttacks fails whenever the set of attacks that succeed differs
// from testdata/open_attacks.txt, in either direction. A fix deletes its
// attack's line; a regression or a newly found hole adds one. The file holds
// one "name item" line per attack that succeeds.
func TestOpenAttacks(t *testing.T) {
	body, err := os.ReadFile(openAttacksFile)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q, want \"name item\"", openAttacksFile, line)
		}
		if listed[f[0]], err = strconv.Atoi(f[1]); err != nil {
			t.Fatalf("%s: malformed line %q: %v", openAttacksFile, line, err)
		}
	}
	for _, a := range openAttacks {
		item, open := listed[a.name]
		delete(listed, a.name)
		switch succeeded := a.run(t); {
		case succeeded && !open:
			t.Errorf("%s succeeds but %s does not list it: add \"%s %d\"", a.name, openAttacksFile, a.name, a.item)
		case !succeeded && open:
			t.Errorf("%s no longer succeeds: delete its line from %s", a.name, openAttacksFile)
		case open && item != a.item:
			t.Errorf("%s: %s names ROADMAP item %d, the attack table %d", a.name, openAttacksFile, item, a.item)
		}
	}
	for name := range listed {
		t.Errorf("%s lists %q, which no attack in the table mounts", openAttacksFile, name)
	}
}

// forgeTable signs a routing table in another node's name holding nothing
// but that node's public key, which every member's directory hands out. The
// forgery names the attacker as every finger; it succeeds when the victim's
// peers accept the signature.
func forgeTable(t *testing.T) bool {
	nw := buildNet(t, 3, 16)
	victim, attacker := nw.Nodes[0].Self(), nw.Nodes[1].Self()
	pub, ok := nw.Dir.Key(victim.ID)
	if !ok {
		t.Fatal("the victim has no directory key")
	}
	forged := chord.RoutingTable{
		Owner:      victim,
		Fingers:    []chord.Peer{attacker, attacker},
		FingerExps: []uint8{62, 63},
		Timestamp:  nw.Sim.Now(),
	}
	if err := forged.Sign(nw.Dir.Scheme(), xcrypto.KeyPair{Public: pub}); err != nil {
		return false
	}
	return nw.Dir.VerifyTable(forged)
}

// seedKeys runs two static processes from one ring.json over loopback TCP,
// each building the deployment for its own endpoint as octopusd -config
// does. Process B is an ordinary peer; it succeeds when B holds the key pair
// every node of process A signs with, and its CA issues a certificate A
// accepts.
func seedKeys(t *testing.T) bool {
	lnA, lnB := loopback(t), loopback(t)
	a, b := lnA.Addr().String(), lnB.Addr().String()
	ring := filepath.Join(t.TempDir(), "ring.json")
	spec, err := json.Marshal(daemon.RingConfig{Seed: 7, Nodes: []string{a, a, a, a, b, b, b, b}, CA: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ring, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := daemon.LoadRingConfig(ring)
	if err != nil {
		t.Fatal(err)
	}
	start := func(ln net.Listener) *core.Network {
		tr, err := nettransport.New(nettransport.Config{
			Listener:  ln,
			Endpoints: append(append([]string{}, rc.Nodes...), rc.CA),
			Seed:      rc.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		cfg := core.DefaultConfig()
		cfg.EstimatedSize = len(rc.Nodes)
		nw, err := core.BuildNetworkLocal(tr, len(rc.Nodes), cfg, tr.Local)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	procA, procB := start(lnA), start(lnB)

	for _, node := range procA.Nodes {
		if node == nil {
			continue
		}
		stolen := procB.Ring.Node(node.Self().Addr).Identity()
		if !reflect.DeepEqual(stolen.Key, node.Chord.Identity().Key) {
			return false
		}
	}
	forger, err := xcrypto.SimScheme{}.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := procB.Auth.Issue(id.ID(0xbad), 0, forger.Public, 0)
	return err == nil && procA.Dir.VerifyCert(cert)
}

func loopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
