package adversary

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/daemon"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
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
	{"qid-initiator", 2, qidInitiator},
	{"phantom-finger", 3, phantomFinger},
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

// qidInitiator lets every relay of a simnet ring read the RelayForward frames
// it legitimately receives, through a wrapped Chord.Extra, while one node runs
// anonymous lookups. A relay that got a frame from another relay, not from
// the initiator, names the initiator from the low 16 bits of the query id. It
// succeeds when such relays saw the initiator's queries and every name they
// read is right.
func qidInitiator(t *testing.T) bool {
	nw := buildNet(t, 5, 40)
	nw.Sim.Run(2 * time.Minute) // stock the relay-pair pools
	initiator := nw.Nodes[0].Self().Addr
	// The ground truth: the query ids the initiator started, that is, sent
	// to a first relay without having relayed them itself.
	relayed, started := map[uint64]bool{}, map[uint64]bool{}
	var later []uint64 // query ids relays got from another relay
	for _, relay := range nw.Nodes {
		deliver, self := relay.Chord.Extra, relay.Self().Addr
		relay.Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
			if f, ok := req.(core.RelayForward); ok {
				switch {
				case self == initiator:
					relayed[f.QID] = true
				case from == initiator:
					started[f.QID] = started[f.QID] || !relayed[f.QID]
				default:
					later = append(later, f.QID)
				}
			}
			return deliver(from, req)
		}
	}
	for i := range 4 {
		nw.Nodes[0].AnonLookup(id.ID(uint64(i+1)*0x9e3779b97f4a7c15), func(chord.Peer, core.LookupStats, error) {})
	}
	nw.Sim.Run(nw.Sim.Now() + time.Minute)
	named := 0
	for _, qid := range later {
		if !started[qid] {
			continue
		}
		if transport.Addr(qid&0xffff) != initiator {
			return false
		}
		named++
	}
	return named > 0
}

// phantomFinger rejoins a crashed slot and has a peer fetch the joiner's
// signed table straight away. It succeeds when the table names the zero peer
// Peer{ID: 0, Addr: 0} as a finger and the peer's directory accepts it.
func phantomFinger(t *testing.T) bool {
	nw := buildNet(t, 9, 16)
	nw.Sim.Run(20 * time.Second)
	const slot, peer = transport.Addr(5), transport.Addr(1)
	nw.Ring.Kill(slot)
	nw.Sim.Run(nw.Sim.Now() + 10*time.Second)
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = 16
	var (
		table   chord.RoutingTable
		fetched bool
	)
	nw.Rejoin(slot, nw.Nodes[0].Self(), cfg, func(joiner *core.Node, err error) {
		if err != nil {
			t.Fatalf("rejoin: %v", err)
		}
		nw.Net.Call(peer, slot, chord.GetTableReq{IncludeSuccessors: true}, time.Second,
			func(resp transport.Message, err error) {
				r, ok := resp.(chord.GetTableResp)
				table, fetched = r.Table, ok && err == nil
			})
	})
	nw.Sim.Run(nw.Sim.Now() + 10*time.Second)
	if !fetched {
		t.Fatal("the joiner's table was never fetched")
	}
	return slices.Contains(table.Fingers, chord.Peer{ID: 0, Addr: 0}) && nw.Dir.VerifyTable(table)
}

func loopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
