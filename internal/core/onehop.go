package core

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// oneHopTier is the D1HT-style full-routing-state tier ("An effective
// single-hop distributed hash table", Monnerat & Amorim): every node keeps
// a (near-)complete sorted view of the ring, so the post-walk convergence
// phase of an anonymous lookup seeds the key's immediate predecessor
// directly and resolves the owner with a single confirming query — cutting
// the multi-round-trip latency the finger tier pays, at the cost of O(n)
// state and membership-event dissemination traffic.
//
// The privacy-critical part of the lookup is untouched: queries still
// travel the anonymous relay-pair path, dummies still interleave, and
// every answer is still a signed routing table verified against the
// directory. The tier only changes *which* candidates the convergence
// engine asks — a biased or fabricated table entry can at worst waste a
// query, exactly as a polluted finger could.
//
// Maintenance follows D1HT's EDRA (Event Detection and Report Algorithm)
// shape: membership events (joins, leaves, failures) buffer locally and
// flush every TierMaintainEvery tick as aggregated TierEventNotify
// messages to exponentially spaced peers with decreasing TTLs — the
// l-th target sits 2^l positions clockwise and receives the events whose
// TTL exceeds l, re-tagged TTL = l. Each event therefore reaches every
// node in O(log n) ticks while each node sends O(log n) aggregate
// messages per tick, which is what keeps maintenance bandwidth bounded
// under churn. When there are no events the tier is completely quiescent.
//
// Event feeds: the node's own failure detector (OnNeighborDropped),
// verified leave notices (vetLeave), CA announces and revocations
// (handleAnnounce/handleRevocation, in deployments where the CA
// broadcasts), and EDRA notifies from other nodes. A joiner bootstraps by
// paging the full table from its first successor (TierSyncReq/Resp) and
// then announces itself as a join event.
//
// All table state is owned by the node's serialization context; the
// counters read by Stats are atomics so the obs layer may snapshot from
// any goroutine.
type oneHopTier struct {
	n *Node

	// table holds every known live member in ID order. A flat sorted
	// slice, not a map: lookups binary-search it, and membership events
	// are rare enough that O(n) splices don't matter. A seeded table
	// aliases the one array every node of the build was seeded with
	// (shared) until its first change, so a 10k-node simulation holds
	// one copy of the ring, not one per node.
	table  []chord.Peer
	shared bool

	// events buffers membership events awaiting EDRA propagation, keyed
	// by subject so a burst of duplicate detections aggregates into one
	// wire entry. oldestAt is the buffer's oldest arrival (virtual time)
	// while nonempty; -1 otherwise.
	events   map[id.ID]tierEvent
	oldestAt atomic.Int64

	synced bool // full-table bootstrap completed (or seeded)

	entriesGauge  atomic.Int64
	eventsApplied atomic.Uint64
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	msgsSent      atomic.Uint64
	msgsRecv      atomic.Uint64
}

// tierEvent is one buffered membership event.
type tierEvent struct {
	join bool
	peer chord.Peer // valid when join
	ttl  int
}

// Candidate-window sizes for Candidates: enough preceding peers that a
// couple of stale entries cannot strand a lookup, plus the successor
// window recordOwnerCandidate wants vouched.
const (
	oneHopPreceding = 8
	oneHopFollowing = 4
	// oneHopRelayMax bounds RelayCandidates to keep fallback-pair draws
	// cheap while still spreading them around the whole ring.
	oneHopRelayMax = 32
	// tierSyncPage bounds how many peers one TierSyncResp page carries when
	// a joiner pulls the full table.
	tierSyncPage = 512
)

func newOneHopTier(n *Node) *oneHopTier {
	t := &oneHopTier{
		n:      n,
		events: make(map[id.ID]tierEvent),
	}
	t.oldestAt.Store(-1)
	return t
}

// Name implements chord.RoutingTier.
func (t *oneHopTier) Name() string { return TierOneHop }

// FullState implements chord.RoutingTier.
func (t *oneHopTier) FullState() bool { return true }

// maintainEvery returns the EDRA flush cadence.
func (t *oneHopTier) maintainEvery() time.Duration {
	if d := t.n.cfg.TierMaintainEvery; d > 0 {
		return d
	}
	return time.Second
}

// start wires the tier's timers and, when the table was not seeded,
// bootstraps it from the first successor. Runs from StartProtocols in the
// node's serialization context.
func (t *oneHopTier) start() {
	self := t.n.Chord.Self
	t.upsert(self)
	t.n.stops = append(t.n.stops,
		t.n.tr.Every(self.Addr, t.maintainEvery(), t.flush))
	if !t.synced {
		// A freshly joined node knows only its chord neighborhood: pull
		// the full table, then announce the join so the rest of the ring
		// learns it through EDRA (deployments with CA broadcast learn it
		// from the announce too; the event dedups on apply).
		t.requestSync(0)
		t.noteJoin(self)
	}
}

// seed installs the full membership view (build-time ground truth for
// simulated steady-state deployments): peers, sorted by ID, which the table
// shares until its first change. Host serialization context only.
func (t *oneHopTier) seed(peers []chord.Peer) {
	t.table, t.shared = slices.Clip(peers), true
	t.upsert(t.n.Chord.Self)
	t.synced = true
	t.entriesGauge.Store(int64(len(t.table)))
}

// find binary-searches the table for an ID, returning its index (or the
// insertion point) and whether it is present.
func (t *oneHopTier) find(nid id.ID) (int, bool) {
	i := sort.Search(len(t.table), func(k int) bool { return t.table[k].ID >= nid })
	return i, i < len(t.table) && t.table[i].ID == nid
}

// own gives the tier a private copy of a shared table before it writes.
func (t *oneHopTier) own() {
	if t.shared {
		t.table, t.shared = slices.Clone(t.table), false
	}
}

// upsert adds or refreshes one table entry; an entry already held as p is
// left alone.
func (t *oneHopTier) upsert(p chord.Peer) {
	i, ok := t.find(p.ID)
	if !p.Valid() || ok && t.table[i] == p {
		return
	}
	t.own()
	if ok {
		t.table[i] = p
	} else {
		t.table = slices.Insert(t.table, i, p)
	}
	t.entriesGauge.Store(int64(len(t.table)))
}

// remove deletes one table entry.
func (t *oneHopTier) remove(node id.ID) {
	i, ok := t.find(node)
	if !ok {
		return
	}
	t.own()
	t.table = slices.Delete(t.table, i, i+1)
	t.entriesGauge.Store(int64(len(t.table)))
}

// rho is the EDRA level count: ceil(log2(table size)).
func (t *oneHopTier) rho() int {
	n := len(t.table)
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// Candidates implements chord.RoutingTier: the oneHopPreceding entries
// tightly preceding key plus the oneHopFollowing entries at/after it. The
// window normally contains the key's immediate predecessor — whose signed
// successor list vouches the owner — so the convergence engine terminates
// after one query; the rest of the window is the fallback schedule when
// an entry turns out stale.
func (t *oneHopTier) Candidates(key id.ID) []chord.Peer {
	v := t.table
	if len(v) == 0 {
		return nil
	}
	// i is the first entry at/after key (wrapping).
	i := sort.Search(len(v), func(k int) bool { return v[k].ID >= key })
	self := t.n.Chord.Self.ID
	out := make([]chord.Peer, 0, oneHopPreceding+oneHopFollowing)
	for k := 1; k <= oneHopPreceding && k <= len(v); k++ {
		p := v[(i-k+len(v)*2)%len(v)]
		if p.ID != self {
			out = append(out, p)
		}
	}
	for k := 0; k < oneHopFollowing && k < len(v); k++ {
		p := v[(i+k)%len(v)]
		if p.ID != self {
			out = append(out, p)
		}
	}
	return out
}

// RelayCandidates implements chord.RoutingTier: an evenly strided sample
// of the table, spreading fallback relays around the whole ring without
// drawing randomness (seeded runs must not consume extra RNG draws).
func (t *oneHopTier) RelayCandidates() []chord.Peer {
	v := t.table
	if len(v) == 0 {
		return nil
	}
	stride := max((len(v)+oneHopRelayMax-1)/oneHopRelayMax, 1)
	out := make([]chord.Peer, 0, oneHopRelayMax)
	for i := 0; i < len(v); i += stride {
		out = append(out, v[i])
	}
	return out
}

// Stats implements chord.RoutingTier. Safe from any goroutine.
func (t *oneHopTier) Stats() chord.TierStats {
	s := chord.TierStats{
		Entries:       int(t.entriesGauge.Load()),
		EventsApplied: t.eventsApplied.Load(),
		BytesSent:     t.bytesSent.Load(),
		BytesReceived: t.bytesRecv.Load(),
		MsgsSent:      t.msgsSent.Load(),
		MsgsReceived:  t.msgsRecv.Load(),
	}
	if at := t.oldestAt.Load(); at >= 0 {
		if now := t.n.tr.Now(); now > time.Duration(at) {
			s.Staleness = now - time.Duration(at)
		}
	}
	return s
}

// noteJoin records a locally observed join: apply and schedule for EDRA
// propagation at full TTL. Like noteLeave, it is a no-op on the nil tier of
// a node that runs the finger tier.
func (t *oneHopTier) noteJoin(p chord.Peer) {
	if t != nil && p.Valid() {
		t.apply(tierEvent{join: true, peer: p, ttl: t.rho()})
	}
}

// noteLeave records a locally observed leave/failure/revocation.
func (t *oneHopTier) noteLeave(node id.ID) {
	if t != nil {
		t.apply(tierEvent{peer: chord.Peer{ID: node}, ttl: t.rho()})
	}
}

// apply updates the table with one event and buffers it for propagation
// when its TTL still has levels to cover. Duplicate events for the same
// subject merge, keeping the highest TTL (and the newest op).
func (t *oneHopTier) apply(ev tierEvent) {
	if ev.join {
		// Hearsay joins get the same vetting as pool relays: a revoked
		// identity never re-enters the table. (Signed-table verification
		// at lookup time bounds the damage of any fabricated entry to
		// one wasted query.)
		if t.n.dir.Revoked(ev.peer.ID) {
			return
		}
		// A peer already known (e.g. both the CA announce and an EDRA
		// copy arrived) leaves the table alone, but the event may still
		// need wider propagation: on to the buffer merge.
		t.upsert(ev.peer)
	} else {
		t.remove(ev.peer.ID)
	}
	t.eventsApplied.Add(1)
	if ev.ttl <= 0 {
		return
	}
	if old, ok := t.events[ev.peer.ID]; ok {
		if old.join == ev.join && old.ttl >= ev.ttl {
			return // already scheduled at least as widely
		}
		if old.ttl > ev.ttl {
			ev.ttl = old.ttl
		}
	}
	if len(t.events) == 0 {
		t.oldestAt.Store(int64(t.n.tr.Now()))
	}
	t.events[ev.peer.ID] = ev
}

// flush is the EDRA tick: aggregate buffered events per level and send
// each level's slice to the peer 2^l positions clockwise, TTL l. Quiescent
// when no events are buffered.
func (t *oneHopTier) flush() {
	if len(t.events) == 0 {
		return
	}
	v := t.table
	self := t.n.Chord.Self
	// Locate self in the sorted view for stride addressing.
	si := sort.Search(len(v), func(k int) bool { return v[k].ID >= self.ID })
	rho := t.rho()
	// Iterate the event buffer in ID order, not map order: the per-level
	// slices below feed straight into wire encoding, and seeded runs must
	// replay bit-identically. This also makes the joins/leaves slices
	// sorted by construction (the map is keyed by peer ID).
	evs := make([]tierEvent, 0, len(t.events))
	for _, ev := range t.events {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].peer.ID < evs[j].peer.ID })
	for l := rho - 1; l >= 0; l-- {
		var joins []chord.Peer
		var leaves []id.ID
		for _, ev := range evs {
			if ev.ttl <= l {
				continue
			}
			if ev.join {
				joins = append(joins, ev.peer)
			} else {
				leaves = append(leaves, ev.peer.ID)
			}
		}
		if len(joins)+len(leaves) == 0 {
			continue
		}
		if si >= len(v) {
			break
		}
		target := v[(si+(1<<uint(l)))%len(v)]
		if !target.Valid() || target.ID == self.ID {
			continue
		}
		m := TierEventNotify{TTL: uint8(l), Joins: joins, Leaves: leaves}
		t.bytesSent.Add(uint64(m.Size()))
		t.msgsSent.Add(1)
		t.n.tr.Send(self.Addr, target.Addr, m)
	}
	t.events = make(map[id.ID]tierEvent)
	t.oldestAt.Store(-1)
}

// handleEventNotify applies a peer's aggregated events and re-buffers them
// at the received TTL for further propagation.
func (t *oneHopTier) handleEventNotify(m TierEventNotify) {
	t.bytesRecv.Add(uint64(m.Size()))
	t.msgsRecv.Add(1)
	for _, p := range m.Joins {
		t.apply(tierEvent{join: true, peer: p, ttl: int(m.TTL)})
	}
	for _, nid := range m.Leaves {
		t.apply(tierEvent{peer: chord.Peer{ID: nid}, ttl: int(m.TTL)})
	}
}

// requestSync pulls one table page from the first live successor, chaining
// until the responder reports no more. From is the resume cursor (ID-order
// exclusive start).
func (t *oneHopTier) requestSync(from id.ID) {
	succs := t.n.Chord.Successors()
	i := slices.IndexFunc(succs, func(s chord.Peer) bool { return s.Valid() && s.ID != t.n.Chord.Self.ID })
	if i < 0 {
		t.synced = true // nobody to ask: a singleton ring is its own table
		return
	}
	target := succs[i]
	req := TierSyncReq{From: from, Max: uint16(tierSyncPage)}
	t.bytesSent.Add(uint64(req.Size()))
	t.msgsSent.Add(1)
	self := t.n.Chord.Self
	t.n.tr.Call(self.Addr, target.Addr, req, t.n.cfg.QueryTimeout,
		func(resp transport.Message, err error) {
			if err != nil {
				t.synced = true // degrade: EDRA + announces fill in over time
				return
			}
			m, ok := resp.(TierSyncResp)
			if !ok {
				t.synced = true
				return
			}
			t.bytesRecv.Add(uint64(m.Size()))
			t.msgsRecv.Add(1)
			var last id.ID
			for _, p := range m.Peers {
				t.upsert(p)
				last = p.ID
			}
			if m.More && len(m.Peers) > 0 {
				t.requestSync(last)
				return
			}
			t.synced = true
		})
}

// handleSyncReq serves one page of the table in ID order starting after
// the cursor.
func (t *oneHopTier) handleSyncReq(m TierSyncReq) TierSyncResp {
	t.bytesRecv.Add(uint64(m.Size()))
	t.msgsRecv.Add(1)
	v := t.table
	max := int(m.Max)
	if max <= 0 {
		max = tierSyncPage
	}
	i := sort.Search(len(v), func(k int) bool { return v[k].ID > m.From })
	var page []chord.Peer
	for len(page) < max && i < len(v) {
		page = append(page, v[i])
		i++
	}
	resp := TierSyncResp{More: i < len(v), Peers: page}
	t.bytesSent.Add(uint64(resp.Size()))
	t.msgsSent.Add(1)
	return resp
}
