package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// dropForwards turns n into a selective-DoS relay (Appendix II): every
// RelayForward reaching it is silently discarded before the Octopus layer
// sees it — the same wrap of Chord.Extra internal/adversary installs.
func dropForwards(n *Node) {
	deliver := n.Chord.Extra
	n.Chord.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		if _, relayed := req.(RelayForward); relayed {
			return nil, false
		}
		return deliver(from, req)
	}
}

// testPeer is relay number i: distinct non-zero ID, distinct address.
func testPeer(i int) chord.Peer {
	return chord.Peer{ID: id.ID(1000 * i), Addr: transport.Addr(i)}
}

func testPair(i, j int) RelayPair { return RelayPair{First: testPeer(i), Second: testPeer(j)} }

// testPool is a pairPool over a bare simulator clock: no nodes, no walks.
// bad, when non-nil, makes it a managed pool whose vet refuses the listed
// relays (what a stopped host or a revoked certificate does in newPairPool).
func testPool(bad map[id.ID]bool) (*pairPool, *simnet.Simulator) {
	sim := simnet.New(1)
	p := &pairPool{
		tr:         simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, 0),
		self:       testPeer(99),
		max:        8,
		stats:      &NodeStats{},
		candidates: func() []chord.Peer { return nil },
	}
	if bad != nil {
		p.vet = func(r chord.Peer) bool { return !bad[r.ID] }
	}
	return p, sim
}

func stockOf(p *pairPool) []RelayPair {
	out := make([]RelayPair, len(p.stock))
	for i, e := range p.stock {
		out[i] = e.pair
	}
	return out
}

func TestPairPoolAddEnforcesInvariant(t *testing.T) {
	p, _ := testPool(nil)
	for _, c := range []struct {
		name string
		pair RelayPair
		want bool
	}{
		{"two distinct relays", testPair(1, 2), true},
		{"contains the node itself", RelayPair{First: p.self, Second: testPeer(3)}, false},
		{"same relay twice", testPair(4, 4), false},
		{"unset relay", RelayPair{First: testPeer(5), Second: chord.NoPeer}, false},
	} {
		if got := p.add(c.pair); got != c.want {
			t.Errorf("%s: add = %v, want %v", c.name, got, c.want)
		}
	}
	for i := 0; p.add(testPair(10+i, 30+i)); i++ {
	}
	if len(p.stock) != p.max || p.size() != p.max {
		t.Errorf("pool holds %d pairs (gauge %d), want the cap %d", len(p.stock), p.size(), p.max)
	}
}

// A passive pool (the paper's) hands out every stocked pair unvetted, however
// old, newest first.
func TestPairPoolPassiveHandsOutEverything(t *testing.T) {
	p, sim := testPool(nil)
	stocked := []RelayPair{testPair(1, 2), testPair(3, 4), testPair(5, 6)}
	for _, pair := range stocked {
		p.add(pair)
	}
	sim.Run(pairMaxAge + time.Hour)
	for i := len(stocked) - 1; i >= 0; i-- {
		got, err := p.take(nil)
		if err != nil || got != stocked[i] {
			t.Fatalf("take = %+v, %v; want %+v", got, err, stocked[i])
		}
	}
	if d := p.stats.PairsDiscarded.Load(); d != 0 {
		t.Errorf("passive pool discarded %d pairs", d)
	}
	if p.size() != 0 {
		t.Errorf("gauge = %d after draining", p.size())
	}
}

// A managed pool drops stale pairs and pairs holding a stopped or revoked
// relay instead of handing them out, and counts each.
func TestPairPoolManagedDiscardsUnusable(t *testing.T) {
	good, spoiled := testPair(1, 2), testPair(3, 4)
	for _, c := range []struct {
		name  string
		spoil func(bad map[id.ID]bool, sim *simnet.Simulator)
	}{
		{"stopped first relay", func(bad map[id.ID]bool, _ *simnet.Simulator) { bad[spoiled.First.ID] = true }},
		{"revoked second relay", func(bad map[id.ID]bool, _ *simnet.Simulator) { bad[spoiled.Second.ID] = true }},
		{"stale", func(_ map[id.ID]bool, sim *simnet.Simulator) { sim.Run(sim.Now() + pairMaxAge + time.Second) }},
	} {
		for _, draw := range []string{"take", "peek"} {
			bad := map[id.ID]bool{}
			p, sim := testPool(bad)
			p.add(spoiled)
			c.spoil(bad, sim)
			p.add(good) // stocked after the wait: still fresh
			if draw == "take" {
				// LIFO: put the spoiled pair on top.
				p.stock[0], p.stock[1] = p.stock[1], p.stock[0]
			}
			var got RelayPair
			var err error
			// peek draws at random: repeat until both entries were met.
			for i := 0; i < 32 && p.stats.PairsDiscarded.Load() == 0; i++ {
				if draw == "take" {
					got, err = p.take(nil)
				} else {
					got, err = p.peek(nil)
				}
				if err != nil || got != good {
					t.Fatalf("%s/%s: drew %+v, %v; want the good pair", c.name, draw, got, err)
				}
			}
			if d := p.stats.PairsDiscarded.Load(); d != 1 {
				t.Errorf("%s/%s: %d pairs discarded, want 1", c.name, draw, d)
			}
			for _, left := range stockOf(p) {
				if left == spoiled {
					t.Errorf("%s/%s: spoiled pair still stocked", c.name, draw)
				}
			}
		}
	}
}

// take(exclude) passes over pairs sharing a relay with the excluded pair and
// puts them back on top in the order it passed them — the order every later
// draw (and so every seeded run) depends on.
func TestPairPoolTakeExcludingPassesOverOverlaps(t *testing.T) {
	p, _ := testPool(nil)
	head := testPair(1, 2)
	a, b, c, d := testPair(3, 4), testPair(5, 6), testPair(1, 7), testPair(8, 2)
	for _, pair := range []RelayPair{a, b, c, d} {
		p.add(pair)
	}
	got, err := p.take(&head)
	if err != nil || got != b {
		t.Fatalf("take(&head) = %+v, %v; want %+v", got, err, b)
	}
	if want := []RelayPair{a, d, c}; !slices.Equal(stockOf(p), want) {
		t.Errorf("stock after take = %+v, want %+v", stockOf(p), want)
	}
	if p.size() != 3 {
		t.Errorf("gauge = %d, want 3", p.size())
	}
	// peek(exclude) never returns an overlapping pair and consumes nothing.
	for i := 0; i < 20; i++ {
		if got, err := p.peek(&head); err == nil && got != a {
			t.Fatalf("peek(&head) = %+v, want %+v", got, a)
		}
	}
	if len(p.stock) != 3 {
		t.Errorf("peek consumed pairs: %d left", len(p.stock))
	}
}

// A dry pool degrades to a pair synthesized from the node's own routing
// state — never the node itself, never an excluded relay, never the same
// relay twice — and counts it as a fallback pair.
func TestPairPoolDryFallsBackToSynth(t *testing.T) {
	p, _ := testPool(nil)
	if _, err := p.take(nil); !errors.Is(err, ErrNoRelays) {
		t.Fatalf("no candidates: err = %v, want ErrNoRelays", err)
	}
	head := testPair(1, 2)
	p.candidates = func() []chord.Peer {
		return []chord.Peer{p.self, head.First, testPeer(3), chord.NoPeer, testPeer(3), head.Second, testPeer(4)}
	}
	for i := 0; i < 10; i++ {
		got, err := p.take(&head)
		if err != nil {
			t.Fatal(err)
		}
		if got != testPair(3, 4) && got != testPair(4, 3) {
			t.Fatalf("synthesized %+v from candidates {3, 4}", got)
		}
	}
	if f := p.stats.FallbackPairs.Load(); f != 10 {
		t.Errorf("fallback pairs = %d, want 10", f)
	}
	// A managed pool vets fallback relays too; one candidate left is not a
	// pair.
	p.vet = func(r chord.Peer) bool { return r.ID != testPeer(4).ID }
	if _, err := p.take(&head); !errors.Is(err, ErrNoRelays) {
		t.Errorf("vetted-out candidate: err = %v, want ErrNoRelays", err)
	}
}

// "Exclude nothing" is an explicit case, not a comparison against a
// sentinel pair: the zero Peer{} is Valid (Addr 0 is a real slot) and does
// occur inside stocked pairs, which must still be handed out.
func TestPairPoolExcludeNothingKeepsZeroPeerPairs(t *testing.T) {
	p, _ := testPool(nil)
	phantom := RelayPair{First: testPeer(1), Second: chord.Peer{}}
	if !p.add(phantom) {
		t.Fatal("add refused a pair holding the zero Peer{}")
	}
	if got, err := p.peek(nil); err != nil || got != phantom {
		t.Errorf("peek(nil) = %+v, %v; want the stocked pair", got, err)
	}
	if got, err := p.take(nil); err != nil || got != phantom {
		t.Errorf("take(nil) = %+v, %v; want the stocked pair", got, err)
	}
}

// refill keeps target pairs stocked or on the way, at most
// pairRefillParallel walks at a time, and after a fruitless walk — even one
// that fails synchronously — waits one retry period instead of spinning.
func TestPairPoolRefill(t *testing.T) {
	p, sim := testPool(map[id.ID]bool{})
	var pending []func(grew bool)
	p.target = 6
	p.retry = 15 * time.Second
	p.running = func() bool { return true }
	p.walk = func(done func(bool)) { pending = append(pending, done) }

	p.refill()
	if len(pending) != pairRefillParallel {
		t.Fatalf("launched %d walks, want %d", len(pending), pairRefillParallel)
	}
	// Each walk that stocks a pair makes room for the next one.
	next := 1
	for len(pending) > 0 {
		done := pending[0]
		pending = pending[1:]
		done(p.add(testPair(next, next+1)))
		next += 2
	}
	if len(p.stock) != p.target || p.inflight != 0 {
		t.Fatalf("stock %d, in flight %d; want %d, 0", len(p.stock), p.inflight, p.target)
	}
	if w := p.stats.RefillWalks.Load(); w != uint64(p.target) {
		t.Errorf("refill walks = %d, want %d", w, p.target)
	}

	// Drain; walks now fail synchronously, as on a node with no fingers.
	launched := 0
	p.walk = func(done func(bool)) { launched++; done(false) }
	p.setStock(nil)
	p.refill()
	if launched != 1 || !p.paused {
		t.Fatalf("after a synchronous failure: %d walks, paused=%v; want 1, true", launched, p.paused)
	}
	p.refill()
	if launched != 1 {
		t.Errorf("refill relaunched while paused (%d walks)", launched)
	}
	sim.Run(sim.Now() + p.retry)
	if launched != 2 {
		t.Errorf("%d walks after the retry period, want 2", launched)
	}

	// A passive pool never walks ahead.
	q, _ := testPool(nil)
	q.refill() // walk and running are nil: would panic if consulted
}

// managedTestPool is a managed testPool that keeps target pairs: its walks
// only queue their done callbacks in *walks, for the test to complete.
func managedTestPool(bad map[id.ID]bool, target int) (*pairPool, *simnet.Simulator, *[]func(grew bool)) {
	p, sim := testPool(bad)
	walks := new([]func(bool))
	p.target = target
	p.retry = 500 * time.Millisecond
	p.running = func() bool { return true }
	p.walk = func(done func(bool)) { *walks = append(*walks, done) }
	return p, sim, walks
}

// On the WalkEvery beat a managed pool walks only while it is short of
// target, and that walk stays outside refill's accounting: it is what stocks
// the pool while every refill slot waits out a timeout.
func TestPairPoolBeatWalksOnlyBelowTarget(t *testing.T) {
	p, _, walks := managedTestPool(map[id.ID]bool{}, 4)
	next := 1
	stock := func() {
		p.add(testPair(next, next+1))
		next += 2
	}
	for len(p.stock) < p.target {
		stock()
	}
	for _, held := range []string{"at target", "above target"} {
		for i := 0; i < 100; i++ {
			p.beat()
		}
		if len(*walks) != 0 {
			t.Fatalf("%s (%d pairs): %d walks over 100 beats, want 0", held, len(p.stock), len(*walks))
		}
		stock()
	}

	p.setStock(p.stock[:p.target-1])
	p.inflight, p.paused = pairRefillParallel, true
	for i := 0; i < 100; i++ {
		p.beat()
	}
	if len(*walks) != 100 {
		t.Errorf("below target: %d walks over 100 beats, want one per beat", len(*walks))
	}
	if r := p.stats.RefillWalks.Load(); r != 0 || p.inflight != pairRefillParallel || !p.paused {
		t.Errorf("beat walks went through refill: %d refill walks, in flight %d, paused=%v",
			r, p.inflight, p.paused)
	}
}

// The beat leaves expiry to the draws: pairs the pool would refuse to hand out
// stay stocked — and count towards target — until a take or peek meets them,
// and the beats after that restock up to target.
func TestPairPoolBeatLeavesExpiryToTheDraw(t *testing.T) {
	const target = 4
	for _, c := range []struct {
		name    string
		spoil   func(bad map[id.ID]bool, sim *simnet.Simulator)
		expired int
	}{
		{"stale", func(_ map[id.ID]bool, sim *simnet.Simulator) { sim.Run(pairMaxAge + time.Second) }, target},
		{"stopped first relay", func(bad map[id.ID]bool, _ *simnet.Simulator) { bad[testPeer(7).ID] = true }, 1},
		{"revoked second relay", func(bad map[id.ID]bool, _ *simnet.Simulator) { bad[testPeer(8).ID] = true }, 1},
	} {
		bad := map[id.ID]bool{}
		p, sim, walks := managedTestPool(bad, target)
		for i := 0; i < target; i++ {
			p.add(testPair(2*i+1, 2*i+2))
		}
		c.spoil(bad, sim)
		for i := 0; i < 100; i++ {
			p.beat()
		}
		if len(p.stock) != target || len(*walks) != 0 || p.stats.PairsDiscarded.Load() != 0 {
			t.Fatalf("%s: 100 beats left %d pairs, started %d walks and discarded %d; want %d, 0, 0",
				c.name, len(p.stock), len(*walks), p.stats.PairsDiscarded.Load(), target)
		}
		// The spoiled pair is the newest, so the next take meets it.
		p.take(nil)
		if d := int(p.stats.PairsDiscarded.Load()); d != c.expired {
			t.Fatalf("%s: take discarded %d pairs, want %d", c.name, d, c.expired)
		}
		// Finish every walk as it is started; keep beating.
		for beats, next := 0, 101; beats < 10*target; beats++ {
			for _, done := range *walks {
				done(p.add(testPair(next, next+1)))
				next += 2
			}
			*walks = (*walks)[:0]
			p.beat()
		}
		if len(p.stock) < target || len(*walks) != 0 {
			t.Errorf("%s: %d pairs and %d walks in flight after restocking, want at least %d and 0",
				c.name, len(p.stock), len(*walks), target)
		}
		for _, left := range p.stock {
			if !p.usable(left) {
				t.Errorf("%s: %+v still stocked", c.name, left.pair)
			}
		}
	}
}

// A passive pool's beat is the paper's: one walk per WalkEvery, whatever the
// pool holds, and nothing ever leaves the stock by age.
func TestPairPoolBeatPassiveWalksEveryTick(t *testing.T) {
	p, sim := testPool(nil)
	walks := 0
	p.walk = func(func(bool)) { walks++ }
	for i := 0; i < 100; i++ {
		p.beat()
	}
	for i := 0; p.add(testPair(10+i, 50+i)); i++ {
	}
	sim.Run(pairMaxAge + time.Hour)
	for i := 0; i < 100; i++ {
		p.beat()
	}
	if walks != 200 {
		t.Errorf("%d walks over 200 beats, want one per beat", walks)
	}
	if len(p.stock) != p.max || p.stats.PairsDiscarded.Load() != 0 {
		t.Errorf("passive beat touched the stock: %d pairs left of %d, %d discarded",
			len(p.stock), p.max, p.stats.PairsDiscarded.Load())
	}
}

// A managed ring on the daemon's cadence, left idle: every node walks to
// stock its pool and to replace what the surveillance probes' peeks find
// expired, and for nothing else — while the stock stays at target, and the
// walks that remain still feed secret surveillance its tables (§4.4).
func TestIdleManagedRingWalksOnlyToRestock(t *testing.T) {
	const (
		n    = 64
		idle = 12 * time.Minute
		// One cohort of target pairs at start-up and one per pairMaxAge
		// after it, each with a few walks to spare (refused pairs, beat
		// walks finishing beside refill's at start-up).
		maxWalks = 100
		// Beats a node may stay short of target in a row: one per pair of
		// an expired cohort (measured 16), and some slack.
		maxShort = 24
	)
	var cfg Config
	nw := buildTestNet(t, 1, n, func(c *Config) {
		c.WalkEvery = 500 * time.Millisecond
		c.SurveilEvery = 15 * time.Second
		cfg = *c
	})
	short := make([]int, n)
	checks := make([]uint64, n)
	for now := cfg.WalkEvery; now <= idle; now += cfg.WalkEvery {
		nw.Sim.Run(now)
		surveilled := now > 2*cfg.SurveilEvery && now%cfg.SurveilEvery == 0
		for i, node := range nw.Nodes {
			p := node.pairs
			if len(p.stock) > relayPoolMax {
				t.Fatalf("t=%v node %d: %d pairs stocked, relayPoolMax is %d", now, i, len(p.stock), relayPoolMax)
			}
			if len(p.stock) >= cfg.PairPoolTarget {
				short[i] = 0
			} else if short[i]++; short[i] > maxShort {
				t.Fatalf("t=%v node %d: %d pairs, short of target %d for %d beats",
					now, i, len(p.stock), cfg.PairPoolTarget, short[i])
			}
			if !surveilled {
				continue
			}
			if node.evidence.tableBuffer.len() == 0 {
				t.Fatalf("t=%v node %d: table buffer empty, finger surveillance starved", now, i)
			}
			c := node.stats.ChecksRun.Load()
			if c <= checks[i] {
				t.Fatalf("t=%v node %d: no surveillance check in the last %v (%d so far)", now, i, cfg.SurveilEvery, c)
			}
			checks[i] = c
		}
	}
	for i, node := range nw.Nodes {
		if w := node.stats.WalksStarted.Load(); w > maxWalks {
			t.Errorf("node %d started %d walks in %v idle, want at most %d", i, w, idle, maxWalks)
		}
	}
}
