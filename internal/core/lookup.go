package core

import (
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Lookup errors.
var (
	// ErrLookupExhausted means the query budget ran out before
	// convergence.
	ErrLookupExhausted = errors.New("core: lookup exhausted its query budget")
	// ErrLookupNoRoute means no candidate node could be queried at all.
	ErrLookupNoRoute = errors.New("core: lookup found no route toward the key")
)

// LookupStats describes one Octopus lookup.
type LookupStats struct {
	// Queries is the number of real (non-dummy) queries sent.
	Queries int
	// Dummies is the number of dummy queries interleaved (§4.2).
	Dummies int
	// Queried lists the real queried nodes in order.
	Queried []chord.Peer
	// PairsUsed counts relay pairs consumed (head + one per query).
	PairsUsed int
	// Rejected counts responses discarded for bad signatures.
	Rejected int
	// Started and Finished are virtual timestamps.
	Started, Finished time.Duration
}

// Latency returns the virtual duration of the lookup.
func (s LookupStats) Latency() time.Duration { return s.Finished - s.Started }

// DirectLookupResult is the outcome of a non-anonymous signed-table lookup
// (used for finger updates, §4.5): the owner plus the signed table that
// asserted it, which doubles as non-repudiable evidence if the result turns
// out to be biased.
type DirectLookupResult struct {
	Owner chord.Peer
	// Evidence is the signed routing table that introduced Owner.
	// HasEvidence is false when the owner was already known locally.
	Evidence    chord.RoutingTable
	HasEvidence bool
}

// tableLookup is the shared iterative convergence engine: Octopus lookups,
// like NISAN's, fetch whole routing tables so the key is never revealed; in
// Octopus the tables additionally carry the successor list (§4.3), which
// both speeds up the final hops and makes every answer a signed, verifiable
// claim.
//
// The engine keeps up to alpha queries in flight (Kademlia-style iterative
// parallelism): each response re-fills the window from the best unqueried
// candidates, and a node is never queried twice. The lookup answers once its
// result is settled (see step), without waiting for stragglers. At alpha = 1
// the schedule is exactly the paper's sequential lookup — one query, absorb,
// next query — so seeded simulator runs are unchanged.
type tableLookup struct {
	n              *Node
	key            id.ID
	alpha          int
	inFlight       int
	finished       bool
	seeded         bool        // the tier's seeds are in cands
	padded         bool        // dummy queries are drawn from cands: see keeps
	cands          []candidate // the peers kept so far, sorted by ID
	closestQueried chord.Peer
	stats          LookupStats
	send           func(target chord.Peer, done func(transport.Message, error)) bool
	finish         func(chord.Peer, DirectLookupResult, error)

	// Owner candidacy follows Chord semantics: the owner is the first
	// node at/after the key in the successor list of a queried
	// predecessor. ownerBest tracks the candidate vouched for by the
	// queried node closest to the key, with its signed table as
	// evidence. Relying on queried successor lists (instead of any
	// stale merged entry) keeps lookups from resolving to long-dead
	// nodes remembered by distant fingertables.
	ownerBest     chord.Peer
	ownerEvidence chord.RoutingTable
	ownerFound    bool
}

// candidate is one peer the lookup knows of.
type candidate struct {
	peer    chord.Peer
	queried bool
	pending bool // queried and not yet answered
}

// find returns where x is, or would be inserted, in the ID-sorted candidate
// set, and whether it is there.
func (tl *tableLookup) find(x id.ID) (int, bool) {
	lo, hi := 0, len(tl.cands)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.cands[mid].peer.ID < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tl.cands) && tl.cands[lo].peer.ID == x
}

// keeps reports whether a peer with identifier x is worth a place in the set.
// A padded lookup draws its dummy targets from everything it knows, so it
// keeps every peer. Otherwise the set is read only by bestUnqueried, which
// never looks outside (closestQueried, key); and since closestQueried only
// moves to a peer inside that interval, a peer outside it now stays outside:
// it is never learned again, and handleResponse drops it from the set once
// closestQueried passes it.
func (tl *tableLookup) keeps(x id.ID) bool {
	return tl.padded || id.StrictBetween(x, tl.closestQueried.ID, tl.key)
}

// learn adds p if it is worth keeping. Whoever named an identifier first —
// the tier or an earlier table — keeps the entry; only a later tier seed
// overwrites an earlier one.
func (tl *tableLookup) learn(p chord.Peer, seed bool) {
	if !tl.keeps(p.ID) {
		return
	}
	i, found := tl.find(p.ID)
	switch {
	case !found:
		tl.cands = slices.Insert(tl.cands, i, candidate{peer: p})
	case seed:
		tl.cands[i].peer = p
	}
}

// seed puts the routing tier's candidates for the key into the set, once, on
// first need: a key inside the local successor window resolves without them.
// It runs before anything is queried, so no table has been absorbed yet. The
// finger tier returns exactly the peers the engine formerly collected itself
// (valid fingers, then the successor list), keeping seeded paper-mode runs
// bit-identical; a full-state tier returns a bounded neighborhood tightly
// preceding the key, which normally contains the owner's immediate
// predecessor. A padded lookup reserves room for the peers the tables will
// add; any other, which drops peers as closestQueried passes them, reserves
// room for the seeds alone.
func (tl *tableLookup) seed() {
	if tl.seeded {
		return
	}
	tl.seeded = true
	seeds := tl.n.tier.Candidates(tl.key)
	size := len(seeds)
	if tl.padded {
		size *= 4
	}
	tl.cands = make([]candidate, 0, size)
	for _, p := range seeds {
		tl.learn(p, true)
	}
}

func (n *Node) newTableLookup(key id.ID, padded bool,
	send func(chord.Peer, func(transport.Message, error)) bool,
	finish func(chord.Peer, DirectLookupResult, error)) *tableLookup {
	alpha := max(1, n.cfg.LookupParallelism)
	if n.tier.FullState() {
		// A full-state tier seeds the key's immediate predecessor
		// directly, so one confirming query resolves the owner; extra
		// parallel probes would only burn relay pairs. Failed queries
		// still widen the schedule one candidate at a time.
		alpha = 1
	}
	tl := &tableLookup{
		n:              n,
		key:            key,
		alpha:          alpha,
		padded:         padded,
		closestQueried: n.Chord.Self,
		send:           send,
		finish:         finish,
	}
	tl.stats.Started = n.tr.Now()
	return tl
}

// bestUnqueried returns the position in cands of the known node most
// tightly preceding the key that improves on closestQueried: the last
// unqueried candidate before the key. closestQueried starts as the node
// itself and only ever moves to a peer inside (closestQueried, key), so it
// lies in [self, key) and, within the interval the choice is made from,
// clockwise distance from the node grows with position in the set: walking
// back from the key, the first unqueried candidate is the furthest one, and
// the first candidate outside the interval ends the walk (only a padded
// lookup keeps any; see keeps). When there is none, pending reports whether
// a query in flight targets the interval.
func (tl *tableLookup) bestUnqueried() (i int, ok, pending bool) {
	i, _ = tl.find(tl.key)
	for range tl.cands {
		if i == 0 {
			i = len(tl.cands)
		}
		i--
		c := tl.cands[i]
		if !id.StrictBetween(c.peer.ID, tl.closestQueried.ID, tl.key) {
			break
		}
		if !c.queried {
			return i, true, false
		}
		pending = pending || c.pending
	}
	return 0, false, pending
}

// dummyTarget draws where a dummy query goes: uniformly from what the lookup
// knows, as an index into the ID order, so the choice is a function of the
// seed and of the set, never of the order peers were learned in.
func (tl *tableLookup) dummyTarget(rng *rand.Rand) (chord.Peer, bool) {
	tl.seed()
	if len(tl.cands) == 0 {
		return chord.NoPeer, false
	}
	return tl.cands[rng.Intn(len(tl.cands))].peer, true
}

// recordOwnerCandidate checks whether a queried node's successor list
// vouches for the key's owner: walking owner → succ[0] → succ[1] …, the
// owner of the key is the first entry at/after it. The queried node closest
// to the key, the last one in (self, key), vouches.
func (tl *tableLookup) recordOwnerCandidate(t chord.RoutingTable) {
	prev := t.Owner.ID
	for _, s := range t.Successors {
		if !s.Valid() {
			continue
		}
		if id.Between(tl.key, prev, s.ID) {
			if !tl.ownerFound || id.StrictBetween(t.Owner.ID, tl.ownerEvidence.Owner.ID, tl.key) {
				tl.ownerBest, tl.ownerEvidence, tl.ownerFound = s, t, true
			}
			return
		}
		prev = s.ID
	}
}

// absorb merges a verified table into the knowledge set.
func (tl *tableLookup) absorb(from chord.Peer, t chord.RoutingTable) {
	add := func(p chord.Peer) {
		if p.Valid() && p.ID != tl.n.Chord.Self.ID {
			tl.learn(p, false)
		}
	}
	bound := gapBound(tl.n.cfg.EstimatedSize, tl.n.cfg.BoundFactor)
	for _, p := range t.Fingers {
		if withinFingerBound(t.Owner, p, bound) {
			add(p)
		}
	}
	// Successor-list entries sit immediately after the owner; a separate
	// tight bound applies (k consecutive nodes span about k expected
	// gaps, with generous slack for density fluctuations).
	succBound := uint64(float64(^uint64(0)/uint64(max(2, tl.n.cfg.EstimatedSize))) *
		tl.n.cfg.BoundFactor * float64(max(1, tl.n.cfg.Chord.Successors)))
	for _, p := range t.Successors {
		if p.Valid() && t.Owner.ID.Distance(p.ID) <= succBound {
			add(p)
		}
	}
}

// step fills the query window up to alpha and decides termination. It runs
// once at launch and once after every response; with alpha = 1 each call
// issues at most one query and runs with none in flight, reproducing the
// sequential schedule exactly. With nothing left to query, the lookup answers
// without waiting for the queries in flight once it is settled: none of them
// can improve on closestQueried, whose own successor list named the owner.
func (tl *tableLookup) step() {
	if tl.finished {
		return
	}
	if tl.stats.Queries == 0 {
		// Keys within the local successor window resolve without any
		// queries — essential for low finger slots, whose ideal
		// positions precede the node's own first successor.
		if owner, ok := tl.n.Chord.OwnerInSuccessors(tl.key); ok {
			tl.done(owner, nil)
			return
		}
	}
	tl.seed()
	for tl.inFlight < tl.alpha {
		if tl.stats.Queries >= tl.n.cfg.MaxLookupQueries {
			if tl.inFlight == 0 {
				tl.done(chord.NoPeer, ErrLookupExhausted)
			}
			return
		}
		next, ok, pending := tl.bestUnqueried()
		if !ok {
			settled := !pending && tl.ownerFound && tl.ownerEvidence.Owner.ID == tl.closestQueried.ID
			if tl.inFlight > 0 && !settled {
				return // re-evaluate when they answer
			}
			if !tl.ownerFound {
				tl.done(chord.NoPeer, ErrLookupNoRoute)
				return
			}
			tl.done(tl.ownerBest, nil)
			return
		}
		if !tl.issue(next) {
			if tl.inFlight == 0 {
				tl.done(chord.NoPeer, ErrNoRelays)
			}
			return
		}
	}
}

// issue sends one query to the candidate at position i and wires its
// response, which always arrives asynchronously, back into the engine. It
// reports whether the query was sent; one that was not is not recorded.
func (tl *tableLookup) issue(i int) bool {
	next := tl.cands[i].peer
	if !tl.send(next, func(resp transport.Message, err error) {
		tl.inFlight--
		if j, found := tl.find(next.ID); found { // else dropped as behind closestQueried
			tl.cands[j].pending = false
		}
		if err == nil {
			tl.handleResponse(next, resp)
		}
		tl.step()
	}) {
		return false
	}
	tl.cands[i].queried, tl.cands[i].pending = true, true
	tl.stats.Queries++
	tl.stats.Queried = append(tl.stats.Queried, next)
	tl.inFlight++
	return true
}

// handleResponse verifies one queried node's signed table and buffers it for
// finger surveillance (§4.4), even after the lookup settled; until then it
// also absorbs it.
func (tl *tableLookup) handleResponse(next chord.Peer, resp transport.Message) {
	table, err := tl.n.signedTableOf(resp, nil, next)
	if err != nil {
		tl.stats.Rejected++ // wrong responder (address reuse) or bad signature
		return
	}
	tl.n.evidence.bufferTable(table)
	if tl.finished {
		return
	}
	if id.StrictBetween(next.ID, tl.closestQueried.ID, tl.key) {
		tl.closestQueried = next
		tl.cands = slices.DeleteFunc(tl.cands, func(c candidate) bool { return !tl.keeps(c.peer.ID) })
	}
	tl.absorb(next, table)
	tl.recordOwnerCandidate(table)
}

func (tl *tableLookup) done(owner chord.Peer, err error) {
	if tl.finished {
		return
	}
	tl.finished = true
	tl.stats.Finished = tl.n.tr.Now()
	res := DirectLookupResult{Owner: owner}
	// An owner resolved inside the local successor window was known
	// without asking anyone: there is no table to show for it.
	if owner.Valid() && tl.ownerFound && tl.ownerBest.ID == owner.ID {
		res.Evidence, res.HasEvidence = tl.ownerEvidence, true
	}
	tl.finish(owner, res, err)
}

// AnonLookup resolves the owner of key anonymously: the initiator is hidden
// behind a shared (A, B) relay pair, every query travels over a fresh
// (Ci, Di) pair (§4.2, Fig. 1(b)), queried nodes only ever see a
// GetTableReq (the key never leaves the initiator), and dummy queries are
// interleaved to blunt range estimation. cb is invoked exactly once.
func (n *Node) AnonLookup(key id.ID, cb func(chord.Peer, LookupStats, error)) {
	n.AnonLookupFull(key, func(owner chord.Peer, _ DirectLookupResult, stats LookupStats, err error) {
		cb(owner, stats, err)
	})
}

// AnonLookupFull is AnonLookup additionally returning the DirectLookupResult
// evidence: the signed routing table that vouched for the owner. Its
// successor list names the nodes immediately after the owner — the replica
// set internal/store fans reads out to when the owner itself is gone.
func (n *Node) AnonLookupFull(key id.ID, cb func(chord.Peer, DirectLookupResult, LookupStats, error)) {
	n.stats.LookupsStarted.Add(1)
	if n.lcache != nil {
		if res, ok := n.lcache.get(key); ok {
			// Served from the cache: no queries, no relay pairs. cb runs
			// synchronously, like the ErrNoRelays path.
			n.stats.CacheHits.Add(1)
			n.stats.LookupsCompleted.Add(1)
			now := n.tr.Now()
			st := LookupStats{Started: now, Finished: now}
			n.observeLookup(key, RelayPair{}, st, nil)
			cb(res.Owner, res, st, nil)
			return
		}
		n.stats.CacheMisses.Add(1)
	}
	head, err := n.pairs.take(nil)
	if err != nil {
		n.stats.LookupsFailed.Add(1)
		now := n.tr.Now()
		st := LookupStats{Started: now, Finished: now}
		n.observeLookup(key, RelayPair{}, st, err)
		cb(chord.NoPeer, DirectLookupResult{}, st, err)
		return
	}
	dummiesLeft := n.cfg.Dummies
	var tl *tableLookup
	send := func(target chord.Peer, done func(transport.Message, error)) bool {
		pair, err := n.pairs.take(&head)
		if err != nil {
			return false
		}
		tl.stats.PairsUsed++
		n.paths.anonQuery(head, pair, target, chord.GetTableReq{IncludeSuccessors: true}, done)
		// Interleave dummy queries so an observer cannot tell real
		// query positions from padding (§4.2). Half-probability per
		// real step spreads them across the lookup.
		for dummiesLeft > 0 && n.tr.Rand().Intn(2) == 0 {
			dummiesLeft--
			n.sendDummy(head, tl)
		}
		return true
	}
	tl = n.newTableLookup(key, true, send, func(owner chord.Peer, res DirectLookupResult, err error) {
		// Flush any dummies the probabilistic interleaving left over.
		for dummiesLeft > 0 {
			dummiesLeft--
			n.sendDummy(head, tl)
		}
		tl.stats.PairsUsed++ // the head pair
		if err != nil {
			n.stats.LookupsFailed.Add(1)
		} else {
			n.stats.LookupsCompleted.Add(1)
			n.cacheLookupResult(key, owner, res)
		}
		n.observeLookup(key, head, tl.stats, err)
		cb(owner, res, tl.stats, err)
	})
	tl.step()
}

// observeLookup feeds one finished anonymous lookup into the obs layer: the
// latency histogram (nil-safe when the node is unattached) and, when a
// tracer is installed, the initiator-side "lookup" span. Every identifying
// attribute — the initiator, the target key, the head relay pair — is in
// the tracer's sensitive set, so in anonymous mode the recorded span keeps
// only timing, the query count, and the outcome.
func (n *Node) observeLookup(key id.ID, head RelayPair, st LookupStats, err error) {
	n.obsLookupLat.ObserveDuration(st.Latency())
	if n.tracer == nil {
		return
	}
	result := "ok"
	if err != nil {
		result = "error"
	}
	attrs := []obs.Attr{
		obs.A("initiator", strconv.Itoa(int(n.Chord.Self.Addr))),
		obs.A("target_key", key.String()),
		obs.A("queries", strconv.Itoa(st.Queries)),
		obs.A("result", result),
	}
	if head.Valid() {
		attrs = append(attrs,
			obs.A("pair_first", strconv.Itoa(int(head.First.Addr))),
			obs.A("pair_second", strconv.Itoa(int(head.Second.Addr))))
	}
	n.tracer.Record(obs.Span{
		Name:  "lookup",
		Node:  strconv.Itoa(int(n.Chord.Self.Addr)),
		Start: st.Started,
		End:   st.Finished,
		Attrs: attrs,
	})
}

// sendDummy issues one dummy query through a fresh pair to a target drawn
// from the lookup's current knowledge, mimicking real query placement.
func (n *Node) sendDummy(head RelayPair, tl *tableLookup) {
	pair, err := n.pairs.take(&head)
	if err != nil {
		return
	}
	target, ok := tl.dummyTarget(n.tr.Rand())
	if !ok {
		return
	}
	tl.stats.Dummies++
	tl.stats.PairsUsed++
	n.stats.DummiesSent.Add(1)
	n.paths.anonQuery(head, pair, target, chord.GetTableReq{IncludeSuccessors: true},
		func(transport.Message, error) {}) // dummy answers are discarded
}

// DirectTableLookup resolves the owner of key non-anonymously but over
// signed tables, as Octopus's periodic finger-update lookups do (§4.5). The
// returned evidence backs a pollution report if the result fails the
// security check.
func (n *Node) DirectTableLookup(key id.ID, cb func(DirectLookupResult, LookupStats, error)) {
	var tl *tableLookup
	send := func(target chord.Peer, done func(transport.Message, error)) bool {
		n.tr.Call(n.Chord.Self.Addr, target.Addr,
			chord.GetTableReq{IncludeSuccessors: true}, n.cfg.Chord.RPCTimeout, done)
		return true
	}
	tl = n.newTableLookup(key, false, send, func(_ chord.Peer, res DirectLookupResult, err error) {
		cb(res, tl.stats, err)
	})
	tl.step()
}
