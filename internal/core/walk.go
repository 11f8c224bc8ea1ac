package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Two-phase random walk for anonymization-relay selection (Appendix I).
//
// Phase 1 is driven by the initiator: it visits l nodes U1..Ul, requesting
// each node's signed fingertable through the incrementally built onion path
// and choosing the next hop uniformly from the bound-checked table.
//
// Phase 2 is delegated to Ul, guided by a random seed the initiator sends
// through the phase-1 path. Ul walks l further hops, choosing each next hop
// by a seed-derived index into the current (bound-checked) fingertable, and
// returns every signed table it saw. The initiator re-derives the
// seed-driven choices to verify Ul walked honestly; the last two hops
// U_{2l-1}, U_{2l} become the relay pair. Splitting the walk keeps the
// relay pair unlinkable to the initiator and limits timing analysis.

// Walk errors.
var (
	errWalkBadResponse = errors.New("core: walk hop returned an unexpected response")
	errWalkBadSig      = errors.New("core: walk table signature invalid")
	errWalkDeadEnd     = errors.New("core: walk table empty after bound checking")
	errWalkDishonest   = errors.New("core: phase-2 verification failed")
)

// walkResult reports the outcome of a completed random walk.
type walkResult struct {
	pair   RelayPair
	tables []chord.RoutingTable // every signed table seen (buffered for §4.4)
}

// startWalk launches one relay-selection walk and stocks the pair it selects.
// Both sources of walks come through here — the cfg.WalkEvery tick and the
// managed pool's walk-ahead refill, which learns through done whether the
// stock grew.
func (n *Node) startWalk(done func(grew bool)) {
	n.stats.WalksStarted.Add(1)
	n.runWalk(func(res walkResult, err error) {
		for _, t := range res.tables {
			n.evidence.bufferTable(t)
		}
		if err != nil {
			n.stats.WalksFailed.Add(1)
			done(false)
			return
		}
		n.stats.WalksCompleted.Add(1)
		done(n.pairs.add(res.pair))
	})
}

// acceptedFingers applies the walk's bound check to a verified table. The
// result is indexed by a draw, so it is a slice; a lookup only iterates and
// filters in place (tableLookup.absorb).
func (n *Node) acceptedFingers(t chord.RoutingTable) []chord.Peer {
	bound := gapBound(n.cfg.EstimatedSize, n.cfg.BoundFactor)
	out := make([]chord.Peer, 0, len(t.Fingers))
	for _, f := range t.Fingers {
		if withinFingerBound(t.Owner, f, bound) {
			out = append(out, f)
		}
	}
	return out
}

func (n *Node) runWalk(cb func(walkResult, error)) {
	rng := n.tr.Rand()
	fingers := n.Chord.Fingers()
	if len(fingers) == 0 {
		cb(walkResult{}, ErrNoRelays)
		return
	}
	var res walkResult
	visited := []chord.Peer{fingers[rng.Intn(len(fingers))]}
	l := n.cfg.WalkLength

	var phase1 func(hop int)
	phase1 = func(hop int) {
		cur := visited[hop-1]
		route := slices.Clone(visited[:hop-1])
		n.paths.chainQuery(route, cur, chord.GetTableReq{}, n.cfg.QueryTimeout, -1,
			func(resp transport.Message, err error) {
				// Not signedTableOf: see signedTable.
				table, err := n.signedTable(resp, err)
				if err != nil {
					cb(res, err)
					return
				}
				res.tables = append(res.tables, table)
				if hop == l {
					n.phaseTwo(visited, cb, &res)
					return
				}
				accepted := n.acceptedFingers(table)
				if len(accepted) == 0 {
					cb(res, errWalkDeadEnd)
					return
				}
				visited = append(visited, accepted[rng.Intn(len(accepted))])
				phase1(hop + 1)
			})
	}
	phase1(1)
}

// phaseTwo sends the seed to Ul through the phase-1 path and verifies the
// returned evidence.
func (n *Node) phaseTwo(visited []chord.Peer, cb func(walkResult, error), res *walkResult) {
	rng := n.tr.Rand()
	seed := rng.Int63()
	l := n.cfg.WalkLength
	req := WalkSeedReq{WalkID: n.paths.nextWalkID(), Seed: seed, Hops: l}
	timeout := 2*n.cfg.QueryTimeout + time.Duration(l)*n.cfg.Chord.RPCTimeout
	// Local delivery to Ul through U1..U_{l-1}.
	n.paths.chainQuery(slices.Clone(visited), chord.NoPeer, req, timeout, -1,
		func(resp transport.Message, err error) {
			if err != nil {
				cb(*res, err)
				return
			}
			reply, ok := resp.(WalkSeedResp)
			if !ok || !reply.OK {
				cb(*res, errWalkBadResponse)
				return
			}
			res.pair, err = n.verifyPhaseTwo(visited[l-1], seed, reply.Tables, res)
			cb(*res, err)
		})
}

// verifyPhaseTwo re-derives the seed-forced walk from the signed tables and
// returns the selected relay pair. Any mismatch means Ul (or a hop)
// tampered with the walk.
func (n *Node) verifyPhaseTwo(ul chord.Peer, seed int64, tables []chord.RoutingTable, res *walkResult) (RelayPair, error) {
	l := n.cfg.WalkLength
	if len(tables) != l || tables[0].Owner.ID != ul.ID {
		return RelayPair{}, errWalkDishonest
	}
	var hops []chord.Peer // U_{l+1} .. U_{2l}
	for i := 1; i <= l; i++ {
		t := tables[i-1]
		if !n.dir.VerifyTable(t) {
			return RelayPair{}, errWalkBadSig
		}
		res.tables = append(res.tables, t)
		accepted := n.acceptedFingers(t)
		if len(accepted) == 0 {
			return RelayPair{}, errWalkDeadEnd
		}
		next := accepted[seededIndex(seed, i, len(accepted))]
		hops = append(hops, next)
		// Each intermediate table must belong to the node the seed
		// forced at the previous step.
		if i < l && tables[i].Owner.ID != next.ID {
			return RelayPair{}, errWalkDishonest
		}
	}
	return RelayPair{First: hops[l-2], Second: hops[l-1]}, nil
}

// runPhaseTwo serves the delegated second phase at Ul: walk Hops hops with
// seed-forced choices, collect signed tables, and answer through the
// reverse path.
func (n *Node) runPhaseTwo(qid uint64, m WalkSeedReq) {
	tables := []chord.RoutingTable{n.Chord.Table(false, false)}
	answer := func(tables []chord.RoutingTable, ok bool) {
		n.relay.reply(RelayReply{QID: qid, Resp: WalkSeedResp{WalkID: m.WalkID, Tables: tables, OK: ok}, Depth: 1})
	}
	fail := func() { answer(nil, false) }
	var step func(i int)
	step = func(i int) {
		prev := tables[i-1]
		accepted := n.acceptedFingers(prev)
		if len(accepted) == 0 {
			fail()
			return
		}
		next := accepted[seededIndex(m.Seed, i, len(accepted))]
		if i == m.Hops {
			// U_{2l} itself is never queried; its identity follows
			// from the last table plus the seed.
			answer(tables, true)
			return
		}
		n.tr.Call(n.Chord.Self.Addr, next.Addr, chord.GetTableReq{}, n.cfg.Chord.RPCTimeout,
			func(resp transport.Message, err error) {
				r, ok := resp.(chord.GetTableResp)
				if err != nil || !ok {
					fail()
					return
				}
				tables = append(tables, r.Table)
				step(i + 1)
			})
	}
	step(1)
}

// seededIndex derives the phase-2 hop choice for step i from the walk seed,
// reproducible by the initiator during verification. (seed, step) is run
// through a splitmix64 finalizer before seeding the PRNG: the previous
// additive derivation (seed + step*0x9e3779b9) handed math/rand sources
// whose low-order state differed by a small constant across adjacent
// steps, producing correlated streams — consecutive hop choices were not
// independent, which a malicious U_l could exploit to nudge the walk
// toward colluders. Walker (runPhaseTwo) and verifier (verifyPhaseTwo)
// share this one derivation, so honest walks still verify.
//
// The draw is defined as rand.New(rand.NewSource(mixed)).Intn(n). That
// needs one word of the generator, which firstInt63 computes without
// seeding all 607; only when Int31n would reject that word and draw again
// (probability below n/2³¹) is a generator built.
func seededIndex(seed int64, step, n int) int {
	if n <= 0 {
		return 0
	}
	mixed := int64(splitmix64(uint64(seed) + uint64(step)*0x9e3779b97f4a7c15))
	if n <= math.MaxInt32 {
		// rand.Rand.Int31n, on Int31() = Int63() >> 32.
		v, w := int32(firstInt63(mixed)>>32), int32(n)
		if w&(w-1) == 0 {
			return int(v & (w - 1))
		}
		if v <= int32(math.MaxInt32-(1<<31)%uint32(w)) {
			return int(v % w)
		}
	}
	return rand.New(rand.NewSource(mixed)).Intn(n)
}

// The seeding procedure of math/rand's additive lagged-Fibonacci source
// (rngSource.Seed, $GOROOT/src/math/rand/rng.go): a Lehmer generator
// x ← 48271·x mod 2³¹−1 runs 20 warm-up steps, then three steps per state
// word, and vec[i] is the three states packed 40/20/0 bits apart, XOR
// rngCooked[i]. The first output adds vec[333] and vec[606] (feed and tap
// after their first decrement), whose Lehmer states start at steps
// 20+3·333+1 = 1020 and 20+3·606+1 = 1839.
const (
	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// 48271^1020 and 48271^1839 mod 2³¹−1 (TestFirstInt63 recomputes them).
	lehmerA1020 = 2082024995
	lehmerA1839 = 933195560
	// rngCooked[333] and rngCooked[606], copied from go1.24
	// $GOROOT/src/math/rand/rng.go line 108 (second value) and line 176
	// (third value). math/rand is frozen under the Go 1 compatibility
	// promise: seeded sequences never change.
	rngCooked333 = -4633371852008891965
	rngCooked606 = 4152330101494654406
)

// firstInt63 returns what rand.NewSource(seed).Int63() returns first.
func firstInt63(seed int64) int64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	// word is one state word: x is the Lehmer state at its first step.
	word := func(x uint64, cooked int64) int64 {
		y := x * lehmerA % lehmerM
		z := y * lehmerA % lehmerM
		return int64(x)<<40 ^ int64(y)<<20 ^ int64(z) ^ cooked
	}
	x := uint64(seed)
	v := word(x*lehmerA1020%lehmerM, rngCooked333) + word(x*lehmerA1839%lehmerM, rngCooked606)
	return v & math.MaxInt64
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea, Flood): a cheap
// full-avalanche 64-bit mixer — every input bit flips each output bit with
// probability ~1/2, so nearby (seed, step) combinations yield unrelated
// PRNG seeds.
func splitmix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
