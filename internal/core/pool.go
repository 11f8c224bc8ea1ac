package core

import (
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// RelayPair is a pair of anonymization relays — the last two hops of one
// random walk (Appendix I, Fig. 1(b)).
type RelayPair struct {
	First, Second chord.Peer
}

// Valid reports whether both relays are set.
func (p RelayPair) Valid() bool { return p.First.Valid() && p.Second.Valid() }

// overlaps reports whether two relay pairs share a node. Every relay on an
// anonymous path must be distinct — the per-query reverse-path state lives
// at each relay, so a node appearing twice on one path would clobber its own
// bookkeeping.
func (p RelayPair) overlaps(q RelayPair) bool {
	return p.First.ID == q.First.ID || p.First.ID == q.Second.ID ||
		p.Second.ID == q.First.ID || p.Second.ID == q.Second.ID
}

func (p RelayPair) contains(id0 chord.Peer) bool {
	return p.First.ID == id0.ID || p.Second.ID == id0.ID
}

// pooledPair is one stocked relay pair plus the time its walk completed,
// so a managed pool can refuse to hand out stale selections.
type pooledPair struct {
	pair  RelayPair
	added time.Duration
}

const (
	// pairMaxAge bounds how stale a pooled pair may be before a managed
	// pool discards it instead of handing it out: a relay selected long ago
	// may have churned away.
	pairMaxAge = 5 * time.Minute
	// pairRefillParallel caps the walks a managed pool keeps in flight
	// while refilling.
	pairRefillParallel = 4
	// pairDrawTries bounds the stocked pairs one excluding draw goes
	// through before giving up on the stock.
	pairDrawTries = 8
	// relayPoolMax caps the stock of unused relay pairs.
	relayPoolMax = 32
)

// pairPool is a node's stock of relay pairs: walks add to it, anonymous
// operations draw from it — take for a lookup's single-use pairs, peek for
// surveillance probes — and when it runs dry synth degrades to the node's
// own routing state. Every pair it holds or hands out is two distinct
// relays, neither the node itself; add and synth enforce that, so callers
// need not re-check.
//
// What a serving node adds to the paper's pool (§4.2, Appendix I) is policy,
// fixed once by newPairPool. The zero policy is the paper's passive pool:
// stocked only by the WalkEvery beat, one walk on every beat whatever it
// holds, every stocked pair handed out as is — required for bit-identical
// seeded experiment runs. A managed pool (target > 0) keeps target pairs
// ready: it vets pairs and fallback relays before use, restocks by walking
// ahead of demand, and on the beat walks only while short of target.
//
// Host serialization context only, except size.
type pairPool struct {
	// stock holds the unused pairs, newest last; gauge mirrors its length
	// for cross-goroutine observers.
	stock []pooledPair
	gauge atomic.Int64
	// inflight counts refill walks under way; paused holds further ones
	// back between a fruitless walk and its retry timer.
	inflight int
	paused   bool

	tr    transport.Transport
	self  chord.Peer
	max   int // relayPoolMax
	stats *NodeStats
	// candidates lists, in draw order, the peers synth builds a fallback
	// pair from; walk runs one relay-selection walk and tells done whether
	// its pair was stocked.
	candidates func() []chord.Peer
	walk       func(done func(grew bool))

	// target is the stock refill keeps ready; vet reports whether a relay
	// may still be used (alive, certificate not revoked); running gates
	// refills on the node's Chord layer; retry is the pause after a
	// fruitless walk. All zero in a passive pool.
	target  int
	vet     func(chord.Peer) bool
	running func() bool
	retry   time.Duration
}

// newPairPool builds n's pool; n.tier must be set. This is the one place the
// paper-vs-serving decision (Config.PairPoolTarget) is taken.
func newPairPool(n *Node) *pairPool {
	p := &pairPool{
		tr:         n.tr,
		self:       n.Chord.Self,
		max:        relayPoolMax,
		stats:      &n.stats,
		candidates: n.tier.RelayCandidates,
		walk:       n.startWalk,
	}
	if n.cfg.PairPoolTarget <= 0 {
		return p
	}
	p.target = n.cfg.PairPoolTarget
	// A pre-built pair must never resurrect an evicted or departed relay.
	p.vet = func(r chord.Peer) bool {
		return n.tr.Alive(r.Addr) && !n.dir.Revoked(r.ID)
	}
	// A small ring has only a handful of distinct fingers, and a serving
	// node must degrade to weaker relays rather than fail lookups outright
	// while its refill walks catch up: widen the fallback candidates to the
	// successor and predecessor lists.
	p.candidates = func() []chord.Peer {
		c := append(n.tier.RelayCandidates(), n.Chord.Successors()...)
		return append(c, n.Chord.Predecessors()...)
	}
	p.running = n.Chord.Running
	p.retry = n.cfg.WalkEvery
	return p
}

// size reports the number of unused pairs. Safe from any goroutine.
func (p *pairPool) size() int { return int(p.gauge.Load()) }

// setStock replaces the stock and its gauge together.
func (p *pairPool) setStock(s []pooledPair) {
	p.stock = s
	p.gauge.Store(int64(len(s)))
}

// add stocks a freshly selected relay pair and reports whether the pool
// grew. Pairs containing the node itself are useless as anonymization relays
// (a walk can circle back) and are refused, like degenerate ones.
func (p *pairPool) add(pair RelayPair) bool {
	if !pair.Valid() || pair.contains(p.self) || pair.First.ID == pair.Second.ID {
		return false
	}
	if len(p.stock) >= p.max {
		return false
	}
	p.setStock(append(p.stock, pooledPair{pair: pair, added: p.tr.Now()}))
	return true
}

// usable vets a stocked pair before it is handed out. A passive pool hands
// out everything; a managed one refuses pairs that are stale or hold a
// relay that fails vet.
func (p *pairPool) usable(e pooledPair) bool {
	if p.vet == nil {
		return true
	}
	return p.tr.Now()-e.added <= pairMaxAge && p.vet(e.pair.First) && p.vet(e.pair.Second)
}

// discard drops the unusable entry at stock[i]; the last entry takes its
// place (a no-op reordering when i is the last).
func (p *pairPool) discard(i int) {
	p.stats.PairsDiscarded.Add(1)
	last := len(p.stock) - 1
	p.stock[i] = p.stock[last]
	p.setStock(p.stock[:last])
}

// take removes and returns the most recently stocked usable pair that shares
// no relay with *exclude; nil excludes nothing. Unusable pairs met on the
// way are dropped; overlapping ones are passed over and go back on top, in
// the order they were passed, selection times intact. A dry pool falls back
// to synth. Every draw ends by topping the pool up (refill).
//
// nil is an explicit case, not a sentinel pair to compare IDs against: the
// zero Peer{} is Valid and does turn up inside stocked pairs (see
// docs/DEPLOYMENT.md, Known limitations).
func (p *pairPool) take(exclude *RelayPair) (RelayPair, error) {
	var passed []pooledPair
	defer func() {
		p.setStock(append(p.stock, passed...))
		p.refill()
	}()
	for tries := 0; len(p.stock) > 0 && (exclude == nil || tries < pairDrawTries); tries++ {
		top := len(p.stock) - 1
		e := p.stock[top]
		if !p.usable(e) {
			p.discard(top)
			continue
		}
		p.setStock(p.stock[:top])
		if exclude == nil || !e.pair.overlaps(*exclude) {
			return e.pair, nil
		}
		passed = append(passed, e)
	}
	return p.synth(exclude)
}

// peek picks a random usable pair WITHOUT consuming it, redrawing while the
// pick overlaps *exclude (nil excludes nothing). Surveillance probes use it:
// they need source anonymity but not pairwise unlinkability across queries,
// so reusing walk-produced pairs is safe and keeps the pool from starving
// (real lookups still consume single-use pairs via take). Unusable picks
// are dropped (order is irrelevant for random peeks) and do not count as a
// draw; a dry pool synthesizes, as take does.
func (p *pairPool) peek(exclude *RelayPair) (RelayPair, error) {
	for tries := 0; tries < pairDrawTries; {
		var pair RelayPair
		if len(p.stock) == 0 {
			var err error
			if pair, err = p.take(nil); err != nil {
				return RelayPair{}, err
			}
		} else {
			i := p.tr.Rand().Intn(len(p.stock))
			if !p.usable(p.stock[i]) {
				p.discard(i)
				continue
			}
			pair = p.stock[i].pair
		}
		if exclude == nil || !pair.overlaps(*exclude) {
			return pair, nil
		}
		tries++
	}
	return RelayPair{}, ErrNoRelays
}

// synth builds a fallback pair from the node's own routing state (its
// candidates), leaving out the node itself and *exclude's relays. It
// sacrifices relay independence and is counted in stats (used only when the
// walk-fed pool runs dry). A managed pool applies the same vetting as to
// stocked pairs: a fallback relay must not be a stopped or revoked node
// either.
func (p *pairPool) synth(exclude *RelayPair) (RelayPair, error) {
	// With nothing to exclude the old sentinel, NoPeer, still applies, and
	// its ID is 0 — which masks the phantom zero finger (Peer{ID: 0, Addr: 0},
	// docs/DEPLOYMENT.md, Known limitations) in this case and no other.
	// Accidental, but seeded runs replay through it, so it stays until the
	// phantom itself is fixed.
	ex := RelayPair{First: chord.NoPeer, Second: chord.NoPeer}
	if exclude != nil {
		ex = *exclude
	}
	seen := map[id.ID]bool{p.self.ID: true, ex.First.ID: true, ex.Second.ID: true}
	var candidates []chord.Peer
	for _, f := range p.candidates() {
		if !f.Valid() || seen[f.ID] {
			continue
		}
		seen[f.ID] = true
		if p.vet != nil && !p.vet(f) {
			continue
		}
		candidates = append(candidates, f)
	}
	if len(candidates) < 2 {
		return RelayPair{}, ErrNoRelays
	}
	rng := p.tr.Rand()
	i := rng.Intn(len(candidates))
	j := rng.Intn(len(candidates) - 1)
	if j >= i {
		j++
	}
	p.stats.FallbackPairs.Add(1)
	return RelayPair{First: candidates[i], Second: candidates[j]}, nil
}

// beat is the cfg.WalkEvery tick. A passive pool walks, whatever it holds; a
// managed pool walks only while short of target. That walk stays outside
// refill's inflight/paused accounting: at start-up every refill slot can sit
// in QueryTimeout on peers not listening yet. Nor does the beat expire stock
// (take and peek do, at hand-out) or call refill: under the chaos storm either
// one cost recoveries after the mass kill (CHANGES.md, PR 23).
func (p *pairPool) beat() {
	if p.target <= 0 || len(p.stock) < p.target {
		p.walk(func(bool) {})
	}
}

// refill is the managed pool's walk-ahead restocking (Appendix I run on
// demand): whenever the stock plus the walks already in flight fall short
// of target, launch more relay-selection walks immediately instead of
// waiting for the next WalkEvery tick. Anonymous lookups then draw pre-built
// pairs rather than paying a 2l-hop walk (or degrading to fallback pairs)
// under load. A passive pool never refills.
func (p *pairPool) refill() {
	if p.target <= 0 || !p.running() {
		return
	}
	// paused gates the loop itself, not just re-entry: a walk fails
	// SYNCHRONOUSLY when the finger table is empty (a just-admitted joiner,
	// or a node whose fingers all churned away), and without the gate the
	// loop would relaunch the failed walk forever inside the host's
	// serialization context — wedging the actor so the very repairs that
	// would refill the fingers could never run.
	for !p.paused && len(p.stock)+p.inflight < p.target && p.inflight < pairRefillParallel {
		p.inflight++
		p.stats.RefillWalks.Add(1)
		p.walk(func(grew bool) {
			p.inflight--
			if grew {
				p.refill()
				return
			}
			// A failed walk (or one whose pair was refused) must not
			// relaunch back-to-back — an unstocked bootstrap ring would
			// spin. Retry after one walk period; concurrent failures
			// coalesce into a single timer.
			if p.paused {
				return
			}
			p.paused = true
			p.tr.After(p.self.Addr, p.retry, func() {
				p.paused = false
				p.refill()
			})
		})
	}
}
