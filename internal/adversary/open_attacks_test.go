package adversary

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/daemon"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/store"
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
	{"store-max-version", 4, storeMaxVersion},
	{"store-forged-value", 27, storeForgedValue},
	{"onion-malleable", 21, onionMalleable},
	{"edra-forged-leave", 19, func(t *testing.T) bool { return edraForged(t, false) }},
	{"edra-forged-join", 19, func(t *testing.T) bool { return edraForged(t, true) }},
	{"relay-route-flood", 4, relayRouteFlood},
	{"walk-owner-swap", 3, walkOwnerSwap},
	{"response-inject", 25, responseInject},
	{"frame-origin-spoof", 25, frameOriginSpoof},
	{"receipt-replay", 20, receiptReplay},
	{"drop-report-frames-exit", 20, dropReportFramesExit},
}

// TestOpenAttacks fails whenever the set of attacks that succeed differs
// from testdata/open_attacks.txt, in either direction. A fix deletes its
// attack's line; a regression or a newly found hole adds one. The file holds
// one "name item" line per attack that succeeds.
func TestOpenAttacks(t *testing.T) {
	listed := readOpenAttacks(t)
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

// readOpenAttacks parses testdata/open_attacks.txt into name → ROADMAP item.
func readOpenAttacks(t *testing.T) map[string]int {
	t.Helper()
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
	return listed
}

// attackTag is how a Known limitations bullet of DEPLOYMENT.md names the
// attack that demonstrates it.
var attackTag = regexp.MustCompile("Attack\\s+line:\\s+`([a-z0-9-]+)`")

// TestOpenAttacksMatchDeployment binds testdata/open_attacks.txt to the
// "Known limitations" section of docs/DEPLOYMENT.md: every open attack is
// tagged in exactly one bullet there, and every tag names an open attack. A
// fix that deletes an attack's line deletes or rewrites its bullet too.
func TestOpenAttacksMatchDeployment(t *testing.T) {
	const doc = "../../docs/DEPLOYMENT.md"
	body, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(body), "\n## Known limitations\n")
	if !ok {
		t.Fatalf("%s has no \"## Known limitations\" section", doc)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	tagged := map[string][]int{} // name → the bullets that tag it
	for i, bullet := range strings.Split(section, "\n- ")[1:] {
		for _, m := range attackTag.FindAllStringSubmatch(bullet, -1) {
			tagged[m[1]] = append(tagged[m[1]], i+1)
		}
	}
	listed := readOpenAttacks(t)
	for name := range listed {
		if n := len(tagged[name]); n != 1 {
			t.Errorf("%s lists %s, which %s's Known limitations tag in %d bullets, want exactly 1", openAttacksFile, name, doc, n)
		}
	}
	for name, bullets := range tagged {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s: Known limitations bullet %d tags %s, which %s does not list", doc, bullets[0], name, openAttacksFile)
		}
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

// storeMaxVersion has a ring member hand-build a ReplicateReq carrying the
// largest version, 2^64-1, and send it to a key's owner and replicas. An
// honest Put of the key then has to stamp a version above that one. It
// succeeds when, after the Put is acknowledged and one sync interval has
// passed, a replica still serves the attacker's value.
func storeMaxVersion(t *testing.T) bool {
	const syncEvery = 10 * time.Second
	nw := buildNet(t, 2, 40)
	stores := make([]*store.Store, len(nw.Nodes))
	for i, node := range nw.Nodes {
		stores[i] = store.New(node, store.Config{SyncEvery: syncEvery})
		stores[i].Start()
	}
	sim := nw.Sim
	sim.Run(30 * time.Second)

	key, forged := id.FromBytes([]byte("store-max-version")), []byte("the attacker's value")
	owner := nw.Ring.Owner(key)
	replicas := nw.Nodes[owner.Addr].Chord.Successors()[:core.DefaultConfig().StoreReplicas-1]
	attacker := nw.Ring.Owner(replicas[len(replicas)-1].ID + 1).Addr
	for _, holder := range append([]chord.Peer{owner}, replicas...) {
		nw.Net.Call(attacker, holder.Addr, store.ReplicateReq{Entries: []store.KV{{Key: key, Version: ^uint64(0), Value: forged}}},
			time.Second, func(transport.Message, error) {})
	}
	sim.Run(sim.Now() + time.Second)

	var put *store.PutResult
	stores[0].Put(key, []byte("the honest value"), func(r store.PutResult) { put = &r })
	sim.Run(sim.Now() + 30*time.Second)
	if put == nil || put.Err != nil {
		t.Fatalf("the honest put was not acknowledged: %+v", put)
	}
	sim.Run(sim.Now() + syncEvery)
	served := false
	for _, r := range replicas {
		nw.Net.Call(attacker, r.Addr, store.FetchReq{Key: key}, time.Second, func(resp transport.Message, err error) {
			if f, ok := resp.(store.FetchResp); ok && err == nil && string(f.Value) == string(forged) {
				served = true
			}
		})
	}
	sim.Run(sim.Now() + time.Second)
	return served
}

// storeForgedValue has the owner of a key answer every FetchReq for it with
// a value of its own, through a Chord.Extra wrap, while it serves the store's
// writes as usual. One node Puts the key honestly; two others then Get it.
// It succeeds when both readers get the owner's value: Get asks the owner
// first and returns the first copy found, and no value carries its writer's
// signature.
func storeForgedValue(t *testing.T) bool {
	nw := buildNet(t, 3, 40)
	stores := make([]*store.Store, len(nw.Nodes))
	for i, node := range nw.Nodes {
		stores[i] = store.New(node, store.Config{})
		stores[i].Start()
	}
	sim := nw.Sim
	sim.Run(30 * time.Second)

	key, forged := id.FromBytes([]byte("store-forged-value")), []byte("the owner's value")
	owner := nw.Node(nw.Ring.Owner(key).Addr)
	serve := owner.Chord.Extra
	owner.Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		if f, ok := req.(store.FetchReq); ok && f.Key == key {
			return store.FetchResp{Found: true, Version: 1, Value: forged}, true
		}
		return serve(from, req)
	}
	var others []*store.Store
	for i, node := range nw.Nodes {
		if node != owner {
			others = append(others, stores[i])
		}
	}

	var put *store.PutResult
	others[0].Put(key, []byte("the honest value"), func(r store.PutResult) { put = &r })
	sim.Run(sim.Now() + 30*time.Second)
	if put == nil || put.Err != nil {
		t.Fatalf("the honest put was not acknowledged: %+v", put)
	}
	forgedReads := 0
	for _, reader := range others[1:3] {
		reader.Get(key, func(r store.GetResult) {
			if r.Found && bytes.Equal(r.Value, forged) {
				forgedReads++
			}
		})
	}
	sim.Run(sim.Now() + 30*time.Second)
	return forgedReads == 2
}

// onionMalleable builds a two-relay onion with xcrypto.Build and peels it
// with xcrypto.Peel, as examples/anoncomm does, after a party holding no key
// has flipped one bit of the outer layer's encrypted next hop (the 8 bytes
// after the 12-byte nonce) and one bit of the onion's last byte. It
// succeeds when both relays peel without an error and read a next hop or
// payload other than the one built. Closed: each layer is sealed with
// AES-GCM, so the first Peel refuses the tampered layer.
func onionMalleable(t *testing.T) bool {
	keys := make([][]byte, 2)
	for i := range keys {
		k, err := xcrypto.NewOnionKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	payload := []byte("lookup key 42")
	nexts := []int64{7, xcrypto.ExitHop}
	onion, err := xcrypto.Build(rand.Reader, keys, nexts, payload)
	if err != nil {
		t.Fatal(err)
	}
	onion[12+7] ^= 1
	onion[len(onion)-1] ^= 1
	next, inner, err := xcrypto.Peel(keys[0], onion)
	if err != nil {
		return false
	}
	exit, got, err := xcrypto.Peel(keys[1], inner)
	return err == nil && (next != nexts[0] || exit != nexts[1] || !bytes.Equal(got, payload))
}

// edraForged has one member of a 64-node one-hop simnet ring send one
// hand-built TierEventNotify, at the depth a node that detected the event
// itself sends it, to one peer, which applies it and passes it on. The forged
// event is the leave of a live honest node or, when join is set, the join of
// a peer nobody runs. It succeeds when, within 20 s, at least half of the
// other members' tables, read through Node.Tier, have lost the live node or
// gained the made-up one.
func edraForged(t *testing.T, join bool) bool {
	const n, depth = 64, 6 // depth: ceil(log2 n), the EDRA levels of a full table
	sim := simnet.New(19)
	cfg := core.DefaultConfig()
	cfg.EstimatedSize, cfg.RoutingTier = n, core.TierOneHop
	nw, err := core.BuildNetwork(simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n+1), n, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	sim.Run(5 * time.Second)
	attacker, receiver := nw.Nodes[0].Self(), nw.Nodes[1].Self()
	subject, listed := nw.Nodes[2].Self(), false
	forged := core.TierEventNotify{TTL: depth, Leaves: []id.ID{subject.ID}}
	if join {
		subject, listed = chord.Peer{ID: subject.ID + 1, Addr: 999}, true
		forged = core.TierEventNotify{TTL: depth, Joins: []chord.Peer{subject}}
	}
	nw.Net.Send(attacker.Addr, receiver.Addr, forged)
	for end := sim.Now() + 20*time.Second; sim.Now() < end; {
		sim.Run(sim.Now() + time.Second)
		others, rewritten := 0, 0
		for _, node := range nw.Nodes {
			if self := node.Self(); self == attacker || self == subject {
				continue
			}
			others++
			if slices.Contains(node.Tier().Candidates(subject.ID), subject) == listed {
				rewritten++
			}
		}
		if 2*rewritten >= others {
			return true
		}
	}
	return false
}

// relayRouteFlood has an honest node of a 16-node simnet ring send a victim
// relay a hand-built RelayForward: an exit query that the victim holds for a
// random pause of up to 3 s. At the same instant another ring member sends
// the victim 1<<17 hand-built RelayForwards with fresh query ids, as many as
// core's qidTableMax, and drops the receipts they earn. It succeeds when the
// honest query's back-route is evicted, so the exit's answer never reaches
// the honest node; a table that evicts by sender cuts the flooder's own
// oldest routes instead. Once the flood's routes are due, the victim must
// give back the heap they took.
func relayRouteFlood(t *testing.T) bool {
	const flood, qid = 1 << 17, 1 << 62
	nw := buildNet(t, 4, 16)
	sim := nw.Sim
	sim.Run(20 * time.Second)
	honest, victim, attacker := nw.Nodes[0].Self().Addr, nw.Nodes[1].Self().Addr, nw.Nodes[2]
	answered := map[uint64]bool{}
	deliver := nw.Nodes[0].Chord.Extra
	nw.Nodes[0].Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		if r, ok := req.(core.RelayReply); ok && r.QID >= qid {
			answered[r.QID] = true
		}
		return deliver(from, req)
	}
	drop := attacker.Chord.Extra
	attacker.Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		if _, ok := req.(core.Receipt); ok {
			return nil, false
		}
		return drop(from, req)
	}
	query := func(q uint64, delay time.Duration) {
		exit := &core.ExitAction{Target: nw.Nodes[3].Self().Addr, Req: chord.PingReq{}}
		nw.Net.Send(honest, victim, core.RelayForward{QID: q, Exit: exit, Delay: delay, Depth: 1})
	}
	query(qid, 0) // unflooded, the answer comes back
	sim.Run(sim.Now() + time.Second)
	if !answered[qid] {
		t.Fatal("the victim relayed no answer to an unflooded query")
	}
	// The simulator's event queue, a slice, keeps the room the flood's
	// messages take; claim it first, so the heap read below is the victim's.
	for range 2 * flood {
		sim.After(0, func() {})
	}
	sim.Run(sim.Now())
	before := liveHeap()

	query(qid+1, 3*time.Second)
	for q := range uint64(flood) {
		nw.Net.Send(attacker.Self().Addr, victim, core.RelayForward{QID: qid + 2 + q, Depth: 1})
	}
	sim.Run(sim.Now() + 10*time.Second)
	flooded := liveHeap()
	sim.Run(sim.Now() + time.Minute) // the flood's routes are due
	after := liveHeap()
	runtime.KeepAlive(nw)
	t.Logf("live heap %d kB before the flood, %d kB after it, %d kB once it is due", before>>10, flooded>>10, after>>10)
	if 4*(after-before) > flooded-before {
		t.Errorf("once the flood is due the heap is %d kB above its level before the flood, more than a quarter of the %d kB the flood took", (after-before)>>10, (flooded-before)>>10)
	}
	return !answered[qid+1]
}

// walkOwnerSwap makes every finger of one walker of a 16-node simnet ring a
// colluder. The walker queries its first walk hop directly; that hop answers
// the table request with the table of another colluder C, which C signed
// itself. It succeeds when the walker draws its next phase-1 hop from C's
// table: the first hop sees that directly, because it carries the walker's
// next table query as the exit relay.
func walkOwnerSwap(t *testing.T) bool {
	nw := buildNet(t, 6, 16)
	walker := nw.Nodes[0]
	fingers := walker.Chord.Fingers()
	var c *core.Node
	for _, node := range nw.Nodes[1:] {
		if !slices.Contains(fingers, node.Self()) {
			c = node
			break
		}
	}
	if c == nil {
		t.Fatal("every node is the walker's finger: no colluder left to stand in")
	}
	var served []chord.Peer // the fingers of the last table a first hop swapped in
	swapped := false
	for _, f := range fingers {
		m := nw.Node(f.Addr)
		m.Chord.Intercept = func(from transport.Addr, req, resp transport.Message, ok bool) (transport.Message, bool) {
			if from != walker.Self().Addr || req != (chord.GetTableReq{}) {
				return resp, ok
			}
			table := c.Chord.Table(false, false)
			served = table.Fingers
			return chord.GetTableResp{Table: table}, true
		}
		deliver := m.Chord.Extra
		m.Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
			if fwd, ok := req.(core.RelayForward); ok && from == walker.Self().Addr && fwd.Exit != nil {
				swapped = swapped || slices.ContainsFunc(served, func(p chord.Peer) bool { return p.Addr == fwd.Exit.Target })
			}
			return deliver(from, req)
		}
	}
	for end := nw.Sim.Now() + 30*time.Second; !swapped && nw.Sim.Now() < end; {
		nw.Sim.Run(nw.Sim.Now() + time.Second)
	}
	return swapped
}

// chainQueryNet is a 60-node simnet ring after 30 s, with an initiator I,
// relays A, B, C and D and a target among its first six nodes.
type chainQueryNet struct {
	*testNet
	initiator, target chord.Peer
	relays            []chord.Peer // A, B, C, D
	qid               uint64
}

func newChainQueryNet(t *testing.T) *chainQueryNet {
	nw := buildNet(t, 13, 60)
	nw.Sim.Run(30 * time.Second)
	peer := func(i int) chord.Peer { return nw.Nodes[i].Self() }
	initiator := peer(0)
	return &chainQueryNet{testNet: nw, initiator: initiator, target: peer(5),
		relays: []chord.Peer{peer(1), peer(2), peer(3), peer(4)},
		qid:    uint64(0xbeef)<<16 | uint64(initiator.Addr)&0xffff}
}

// send sends a hand-built query along I → A → B → C → D, laid out as core's
// anonymous queries are: B's layer carries the relay delay. It runs for one
// query timeout.
func (nw *chainQueryNet) send() {
	cfg := nw.Nodes[0].Config()
	a, b, c, d := nw.relays[0], nw.relays[1], nw.relays[2], nw.relays[3]
	exit := &core.RelayForward{QID: nw.qid, Exit: &core.ExitAction{Target: nw.target.Addr, Req: chord.GetTableReq{}}, Depth: 1}
	toD := &core.RelayForward{QID: nw.qid, Next: d.Addr, Inner: exit, Depth: 2}
	toC := &core.RelayForward{QID: nw.qid, Next: c.Addr, Inner: toD, Delay: cfg.RelayDelayMax, Depth: 3}
	nw.Net.Send(nw.initiator.Addr, a.Addr, core.RelayForward{QID: nw.qid, Next: b.Addr, Inner: toC, Depth: 4})
	nw.Sim.Run(nw.Sim.Now() + cfg.QueryTimeout)
}

// report files the drop report core's initiator files for a query that
// vanished with its head receipt held, and runs the CA's investigation.
func (nw *chainQueryNet) report() {
	report := core.ReportMsg{Kind: core.ReportSelectiveDrop, Relays: nw.relays, QID: nw.qid, HasHeadReceipt: true}
	nw.Net.Call(nw.initiator.Addr, nw.CA.Addr(), report, nw.Nodes[0].Config().Chord.RPCTimeout, func(transport.Message, error) {})
	nw.Sim.Run(nw.Sim.Now() + 5*time.Minute)
}

// receiptReplay has an honest initiator I send a query along I → A → B → C
// → D (chainQueryNet). Colluder D drops forwards, so the query vanishes and I
// files the drop report. Colluder A hands B's receipt back to B at once, and
// it reaches B before B forwards, so B keeps its own receipt and refuses
// C's. It succeeds when the CA revokes the honest B. Without the replay the
// CA must revoke D and leave B alone.
func receiptReplay(t *testing.T) bool {
	run := func(replay bool) (revokedB, revokedD bool) {
		nw := newChainQueryNet(t)
		a, b, d := nw.relays[0], nw.relays[1], nw.relays[3]
		headReceipt, answered := false, false
		deliverI := nw.Nodes[0].Chord.Extra
		nw.Nodes[0].Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
			switch m := req.(type) {
			case core.Receipt:
				headReceipt = headReceipt || m.QID == nw.qid && m.Issuer.ID == a.ID
			case core.RelayReply:
				answered = answered || m.QID == nw.qid
			}
			return deliverI(from, req)
		}
		deliverA := nw.Nodes[1].Chord.Extra
		nw.Nodes[1].Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
			if r, ok := req.(core.Receipt); ok && replay && r.QID == nw.qid {
				nw.Net.Send(a.Addr, r.Issuer.Addr, r) // B's own receipt, back to B
			}
			return deliverA(from, req)
		}
		deliverD := nw.Nodes[4].Chord.Extra
		nw.Nodes[4].Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
			if _, ok := req.(core.RelayForward); ok {
				return nil, false
			}
			return deliverD(from, req)
		}
		nw.send()
		if answered || !headReceipt {
			t.Fatalf("replay %v: the query was answered (%v) or A issued no receipt (%v)", replay, answered, !headReceipt)
		}
		nw.report()
		return nw.CA.Revoked(b.ID), nw.CA.Revoked(d.ID)
	}
	if b, d := run(false); b || !d {
		t.Fatalf("without the replay the CA revoked B: %v, the dropper D: %v; want only D", b, d)
	}
	b, _ := run(true)
	return b
}

// dropReportFramesExit has a colluding initiator I send a query along honest
// relays I → A → B → C → D (chainQueryNet), which all forward it, and D's
// answer reaches I. I then files the drop report anyway, claiming A's
// receipt. It succeeds when the CA revokes the honest exit D: the CA checks
// no head receipt, finds each of A, B and C holding its next hop's receipt,
// and asks the exit for no proof that it replied.
func dropReportFramesExit(t *testing.T) bool {
	nw := newChainQueryNet(t)
	answered := false
	deliverI := nw.Nodes[0].Chord.Extra
	nw.Nodes[0].Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		if m, ok := req.(core.RelayReply); ok && m.QID == nw.qid && !m.Failed {
			answered = true
		}
		return deliverI(from, req)
	}
	nw.send()
	if !answered {
		t.Fatal("the honest path did not answer the query")
	}
	nw.report()
	for _, p := range nw.relays[:3] {
		if nw.CA.Revoked(p.ID) {
			t.Fatalf("the CA revoked honest relay %v before the exit", p)
		}
	}
	return nw.CA.Revoked(nw.relays[3].ID)
}

// responseInject runs nodes A and B as two nettransport processes on
// loopback; B's handler never answers. A asks B for a stored value, and a
// process that holds no slot dials A and writes one hand-built response
// frame that claims to come from B, carrying a guessed request id: 1, the
// first value of a counter. It succeeds when A's pending call completes
// with the forged value.
func responseInject(t *testing.T) bool {
	lnA, lnB := loopback(t), loopback(t)
	endpoints := []string{lnA.Addr().String(), lnB.Addr().String()}
	const a, b = transport.Addr(0), transport.Addr(1)
	start := func(ln net.Listener) *nettransport.Transport {
		tr, err := nettransport.New(nettransport.Config{Listener: ln, Endpoints: endpoints, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	trA, trB := start(lnA), start(lnB)
	trB.Bind(b, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })

	forged := store.FetchResp{Found: true, Version: 1, Value: []byte("the attacker's value")}
	got := make(chan transport.Message, 1)
	trA.Call(a, b, store.FetchReq{Key: id.FromString("response-inject")}, time.Second,
		func(resp transport.Message, err error) {
			if err != nil {
				resp = nil
			}
			got <- resp
		})

	const response, guess = 0x03, 1
	writeFrame(t, endpoints[0], response, b, a, guess, forged)
	return reflect.DeepEqual(<-got, forged)
}

// frameOriginSpoof runs an 8-node ring and its CA in one nettransport
// process, except member v, whose endpoint is a bare listener that records
// what arrives. A third process dials the ring's listener and writes one
// hand-built RelayForward frame from v to relay r: an exit query that pings
// another member. The relay's handler takes the frame's from as the previous
// hop, so it records v as the query's back-route. It succeeds when the exit's
// answer, a RelayReply for the attacker's query id, reaches v, which never
// sent the query.
func frameOriginSpoof(t *testing.T) bool {
	const n, r, v, target, qid = 8, transport.Addr(0), transport.Addr(1), transport.Addr(2), uint64(1 << 62)
	lnA, lnV := loopback(t), loopback(t)
	t.Cleanup(func() { lnV.Close() })
	endpoints := make([]string, n+1) // n members and the CA
	for i := range endpoints {
		endpoints[i] = lnA.Addr().String()
	}
	endpoints[v] = lnV.Addr().String()
	tr, err := nettransport.New(nettransport.Config{Listener: lnA, Endpoints: endpoints, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = n
	if _, err := core.BuildNetworkLocal(tr, n, cfg, func(a transport.Addr) bool { return a != v }); err != nil {
		t.Fatal(err)
	}

	// v reads every frame the ring writes to it, until the ring's
	// transport closes; the layout is that of docs/PROTOCOL.md §3.1.
	replied := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			conn, err := lnV.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var length [4]byte
					if _, err := io.ReadFull(conn, length[:]); err != nil {
						return
					}
					frame := make([]byte, binary.BigEndian.Uint32(length[:]))
					if _, err := io.ReadFull(conn, frame); err != nil || len(frame) < 1+6+6+8 {
						return
					}
					m, err := transport.Decode(frame[1+6+6+8:])
					if reply, ok := m.(core.RelayReply); err == nil && ok && reply.QID == qid {
						once.Do(func() { close(replied) })
					}
				}
			}()
		}
	}()

	const oneway = 0x01 // as every RelayForward travels
	fwd := core.RelayForward{QID: qid, Exit: &core.ExitAction{Target: target, Req: chord.PingReq{}}, Depth: 1}
	writeFrame(t, lnA.Addr().String(), oneway, v, r, 0, fwd)
	select {
	case <-replied:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// writeFrame dials endpoint as a process that holds no slot and writes one
// hand-built frame carrying m, in the layout of docs/PROTOCOL.md §3.1:
// length, kind, from, to, request id, codec payload.
func writeFrame(t *testing.T, endpoint string, kind uint8, from, to transport.Addr, reqID uint64, m transport.Message) {
	payload, err := transport.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	w, length := &transport.Codec{}, uint32(1+6+6+8+len(payload))
	w.U32(&length)
	w.U8(&kind)
	w.Addr(&from)
	w.Addr(&to)
	w.U64(&reqID)
	conn, err := net.Dial("tcp", endpoint)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(append(w.Bytes(), payload...)); err != nil {
		t.Fatal(err)
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func loopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
