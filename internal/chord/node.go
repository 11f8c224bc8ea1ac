package chord

import (
	"slices"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Config carries the routing-layer parameters. The defaults are the paper's
// §5.1 experiment setup.
type Config struct {
	// Fingers is the fingertable length. Finger i targets
	// self + 2^(Bits-Fingers+i), so the table covers the top Fingers
	// octaves of the ring — the only ones that are distinct when
	// N << 2^Bits.
	Fingers int
	// Successors is the successor-list length; the predecessor list has
	// the same length (§4.3).
	Successors int
	// StabilizeEvery is the period of both stabilization protocols.
	StabilizeEvery time.Duration
	// SuspectEvery is the period of the failure-suspicion probe, which
	// pings one random non-head successor/predecessor with an
	// identity-echoing SuspectReq and drops it on timeout or identity
	// mismatch. Zero disables the probe (list tails then heal only
	// through stabilization merges). Deployments under churn should set
	// it to roughly the stabilization period.
	SuspectEvery time.Duration
	// FixFingersEvery is the period of finger-update lookups.
	FixFingersEvery time.Duration
	// RPCTimeout bounds every request/response exchange.
	RPCTimeout time.Duration
	// DisableFingerUpdates suppresses the built-in finger-update timer.
	// Octopus sets it and runs its own secured finger updates (§4.5).
	DisableFingerUpdates bool
}

// DefaultConfig returns the paper's §5.1 parameters: 12 fingers, 6
// successors/predecessors, stabilization every 2 s, finger updates every
// 30 s.
func DefaultConfig() Config {
	return Config{
		Fingers:         12,
		Successors:      6,
		StabilizeEvery:  2 * time.Second,
		FixFingersEvery: 30 * time.Second,
		RPCTimeout:      2 * time.Second,
	}
}

// Identity is a node's cryptographic identity: a key pair plus the CA
// certificate that binds it to the node's ring position.
type Identity struct {
	Scheme xcrypto.Scheme
	Key    xcrypto.KeyPair
	Cert   xcrypto.Certificate
}

// Interceptor lets an adversary replace a node's honest response to an RPC.
// It receives the honest reply and returns the (possibly manipulated) reply
// actually sent; ok=false drops the request.
type Interceptor func(from transport.Addr, req, honest transport.Message, honestOK bool) (transport.Message, bool)

// Node is one Chord participant.
type Node struct {
	Cfg  Config
	Self Peer

	tr    transport.Transport
	ident *Identity

	fingers []Peer
	succs   []Peer
	preds   []Peer
	snap    snapshot
	nextFix int
	running bool
	stops   []func()

	// Intercept, when set, filters every outgoing response (adversary
	// hook).
	Intercept Interceptor
	// Extra handles message types unknown to the routing layer (Octopus
	// relay and surveillance traffic).
	Extra transport.Handler
	// AdmitJoin, when set, vets a JoinReq before the node admits the
	// sender as its predecessor (Octopus verifies the carried certificate
	// against the CA key and registers the joiner's public key here). A
	// nil hook admits every structurally valid join — the behaviour of
	// the unsigned Chord baselines.
	AdmitJoin func(m JoinReq) bool
	// VetLeave, when set, vets a LeaveReq before the node splices the
	// departing peer out (Octopus verifies the carried self-signature —
	// see LeaveStatement). Nil accepts every leave notice, as the
	// unsigned baselines must.
	VetLeave func(m LeaveReq) bool
	// OnNeighborTable fires whenever a stabilization exchange delivers a
	// neighbor's signed table (Octopus proof queue, §4.3).
	OnNeighborTable func(src Peer, table RoutingTable)
	// OnNeighborDropped fires whenever a neighbor is spliced out of the
	// successor/predecessor lists — leave notices, failed stabilization
	// probes, and identity mismatches all funnel through it. Octopus uses
	// it to invalidate cached lookup results: any membership shift can
	// move key ownership.
	OnNeighborDropped func(p Peer)
	// Tier is the peer set next-hop selection routes through
	// (handleFindNext and the FindNext-driven Lookup). NewNode installs a
	// FingerTier over the node's own fingers + successor list. A
	// full-state tier makes the node answer FindNext with the key's
	// immediate predecessor, collapsing vanilla lookups to O(1) hops.
	Tier RoutingTier
}

// NewNode creates a node bound to addr on the transport. It does not start
// timers or bind the handler; call Start (or Ring helpers) for that.
func NewNode(tr transport.Transport, cfg Config, self Peer, ident *Identity) *Node {
	n := &Node{
		Cfg:     cfg,
		Self:    self,
		tr:      tr,
		ident:   ident,
		fingers: make([]Peer, cfg.Fingers),
	}
	n.Tier = NewFingerTier(n)
	return n
}

// Transport returns the transport the node speaks over.
func (n *Node) Transport() transport.Transport { return n.tr }

// Identity returns the node's identity (nil when unsigned).
func (n *Node) Identity() *Identity { return n.ident }

// Running reports whether the node's timers are active.
func (n *Node) Running() bool { return n.running }

// Successors returns a copy of the successor list.
func (n *Node) Successors() []Peer { return slices.Clone(n.succs) }

// Predecessors returns a copy of the predecessor list.
func (n *Node) Predecessors() []Peer { return slices.Clone(n.preds) }

// Fingers returns a copy of the fingertable.
func (n *Node) Fingers() []Peer { return slices.Clone(n.fingers) }

// SetSuccessors overwrites the successor list (ring bootstrap and tests).
func (n *Node) SetSuccessors(ps []Peer) { n.succs = slices.Clone(ps) }

// SetPredecessors overwrites the predecessor list.
func (n *Node) SetPredecessors(ps []Peer) { n.preds = slices.Clone(ps) }

// SetFinger overwrites one finger slot.
func (n *Node) SetFinger(i int, p Peer) {
	if i >= 0 && i < len(n.fingers) {
		n.fingers[i] = p
	}
}

// FingerTarget returns the ideal identifier of finger slot i.
func (n *Node) FingerTarget(i int) id.ID {
	return n.Self.ID.FingerTarget(id.Bits - n.Cfg.Fingers + i)
}

// Start binds the node's handler and launches the maintenance timers:
// successor stabilization, predecessor stabilization (anti-clockwise, §4.3),
// and finger-update lookups.
func (n *Node) Start() {
	if n.running {
		return
	}
	n.tr.Bind(n.Self.Addr, n.handle)
	n.running = true
	n.stops = append(n.stops,
		n.tr.Every(n.Self.Addr, n.Cfg.StabilizeEvery, func() { n.stabilize(true) }),
		n.tr.Every(n.Self.Addr, n.Cfg.StabilizeEvery, func() { n.stabilize(false) }),
	)
	if !n.Cfg.DisableFingerUpdates {
		n.stops = append(n.stops,
			n.tr.Every(n.Self.Addr, n.Cfg.FixFingersEvery, func() { n.fixNextFinger() }))
	}
	if n.Cfg.SuspectEvery > 0 {
		n.stops = append(n.stops,
			n.tr.Every(n.Self.Addr, n.Cfg.SuspectEvery, func() { n.suspectNeighbor() }))
	}
}

// Stop cancels the timers and takes the node off the network (used by the
// churn model for node death).
func (n *Node) Stop() {
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	n.running = false
	n.tr.SetAlive(n.Self.Addr, false)
}

// snapshot is the node's routing state in one array that is never written:
// the valid fingers, then the successors, then the predecessors. Tables and
// the validFingers and knownPeers views are slices of it, each capped at its
// own length, so an append reallocates instead of writing into the array.
// succs and preds are nil when the live list was nil, which the wire format
// tells apart from empty.
type snapshot struct {
	peers        []Peer
	exps         []uint8 // exps[i] is the exponent of finger i
	succs, preds []Peer
}

func (s *snapshot) fingers() []Peer { return s.peers[:len(s.exps):len(s.exps)] }

// current returns the snapshot, rebuilt when the live lists no longer hold
// its content. Those are written in place at many sites, so staleness is a
// comparison of at most Fingers + 2·Successors peers, not an invalidation
// each write site must remember; it allocates nothing.
func (n *Node) current() *snapshot {
	if s := &n.snap; s.peers != nil && n.holds(s) {
		return s
	}
	peers := make([]Peer, 0, len(n.fingers)+len(n.succs)+len(n.preds))
	exps := make([]uint8, 0, len(n.fingers))
	for slot, f := range n.fingers {
		if f.Valid() {
			peers = append(peers, f)
			exps = append(exps, n.fingerExp(slot))
		}
	}
	nf, ns := len(peers), len(n.succs)
	peers = append(append(peers, n.succs...), n.preds...)
	n.snap = snapshot{peers: peers, exps: exps[:nf:nf]}
	if n.succs != nil {
		n.snap.succs = peers[nf : nf+ns : nf+ns]
	}
	if n.preds != nil {
		n.snap.preds = peers[nf+ns : len(peers) : len(peers)]
	}
	return &n.snap
}

// holds reports whether the live lists have the snapshot's content.
func (n *Node) holds(s *snapshot) bool {
	j := 0
	for slot, f := range n.fingers {
		if !f.Valid() {
			continue
		}
		if j == len(s.exps) || s.peers[j] != f || s.exps[j] != n.fingerExp(slot) {
			return false
		}
		j++
	}
	same := func(a, b []Peer) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }
	return j == len(s.exps) && same(s.succs, n.succs) && same(s.preds, n.preds)
}

func (n *Node) fingerExp(slot int) uint8 { return uint8(id.Bits - n.Cfg.Fingers + slot) }

// Table assembles the node's routing table for a querier, signing it when
// the node runs in signed mode. Its lists are the node's snapshot, shared by
// every table issued while the routing state holds still; only Timestamp and
// Sig are the table's own. A table never aliases the node's live lists, so
// what a receiver keeps stays as it was signed. Lists that were not
// requested are nil.
func (n *Node) Table(includeSucc, includePred bool) RoutingTable {
	s := n.current()
	rt := RoutingTable{
		Owner:      n.Self,
		Fingers:    s.fingers(),
		FingerExps: s.exps,
		Timestamp:  n.tr.Now(),
	}
	if includeSucc {
		rt.Successors = s.succs
	}
	if includePred {
		rt.Predecessors = s.preds
	}
	n.signTable(&rt)
	return rt
}

func (n *Node) signTable(rt *RoutingTable) {
	if n.ident != nil {
		// Signing failures cannot occur with the in-tree schemes on
		// well-formed keys; a nil Sig would simply fail verification
		// downstream, which is the correct degraded behaviour.
		_ = rt.Sign(n.ident.Scheme, n.ident.Key)
	}
}

// validFingers returns the valid fingers, a capped view of the snapshot.
func (n *Node) validFingers() []Peer { return n.current().fingers() }

// knownPeers returns every peer the node can route through: the valid
// fingers, then the successors, a capped view of the snapshot.
func (n *Node) knownPeers() []Peer {
	s := n.current()
	k := len(s.exps) + len(s.succs)
	return s.peers[:k:k]
}

// OwnerInSuccessors resolves a key against the node's own successor list:
// when the key falls within the list's span, the owner is known locally
// with no network traffic. Scanning self → succs[0] → succs[1] ..., the
// owner is the first node whose ID the key does not exceed. Octopus's
// lookups use it both as a fast path and to keep low finger slots fresh
// (their ideal positions sit inside the successor window).
func (n *Node) OwnerInSuccessors(key id.ID) (Peer, bool) {
	if key == n.Self.ID {
		return n.Self, true
	}
	prev := n.Self.ID
	for _, s := range n.succs {
		if !s.Valid() {
			continue
		}
		if id.Between(key, prev, s.ID) {
			return s, true
		}
		prev = s.ID
	}
	return NoPeer, false
}

// closestPreceding picks the known peer most tightly preceding key, drawn
// from the node's routing tier.
func (n *Node) closestPreceding(key id.ID) (Peer, bool) {
	peers := n.Tier.Candidates(key)
	ids := make([]id.ID, len(peers))
	for i, p := range peers {
		ids[i] = p.ID
	}
	best, ok := id.ClosestPreceding(n.Self.ID, key, ids)
	if !ok {
		return NoPeer, false
	}
	for _, p := range peers {
		if p.ID == best {
			return p, true
		}
	}
	return NoPeer, false
}

// handle is the node's RPC dispatcher.
func (n *Node) handle(from transport.Addr, req transport.Message) (transport.Message, bool) {
	resp, ok := n.honestHandle(from, req)
	if n.Intercept != nil {
		return n.Intercept(from, req, resp, ok)
	}
	return resp, ok
}

func (n *Node) honestHandle(from transport.Addr, req transport.Message) (transport.Message, bool) {
	switch m := req.(type) {
	case PingReq:
		return PingResp{}, true

	case FindNextReq:
		return n.handleFindNext(m), true

	case GetTableReq:
		return GetTableResp{Table: n.Table(m.IncludeSuccessors, m.IncludePredecessors)}, true

	case StabilizeReq:
		return n.handleStabilize(m), true

	case NotifyReq:
		n.handleNotify(m)
		return NotifyResp{}, true

	case JoinReq:
		return n.handleJoin(m), true

	case LeaveReq:
		return n.handleLeave(m), true

	case SuspectReq:
		return SuspectResp{Who: n.Self}, true

	default:
		if n.Extra != nil {
			return n.Extra(from, req)
		}
		return nil, false
	}
}

func (n *Node) handleFindNext(m FindNextReq) FindNextResp {
	if len(n.preds) > 0 && n.preds[0].Valid() &&
		id.Between(m.Key, n.preds[0].ID, n.Self.ID) {
		return FindNextResp{Done: true, Owner: n.Self}
	}
	if owner, ok := n.OwnerInSuccessors(m.Key); ok {
		return FindNextResp{Done: true, Owner: owner}
	}
	next, ok := n.closestPreceding(m.Key)
	if !ok {
		// We know nothing closer; we are effectively the predecessor,
		// so our first successor (or self in a singleton ring) owns
		// the key.
		if len(n.succs) > 0 {
			return FindNextResp{Done: true, Owner: n.succs[0]}
		}
		return FindNextResp{Done: true, Owner: n.Self}
	}
	return FindNextResp{Next: next}
}

func (n *Node) handleStabilize(m StabilizeReq) StabilizeResp {
	s := n.current()
	rt := RoutingTable{Owner: n.Self, Timestamp: n.tr.Now()}
	back := NoPeer
	if m.Clockwise {
		rt.Successors = s.succs
		if len(n.preds) > 0 {
			back = n.preds[0]
		}
	} else {
		rt.Predecessors = s.preds
		if len(n.succs) > 0 {
			back = n.succs[0]
		}
	}
	n.signTable(&rt)
	return StabilizeResp{Table: rt, Back: back}
}

func (n *Node) handleNotify(m NotifyReq) {
	if !m.Who.Valid() || m.Who.ID == n.Self.ID {
		return
	}
	if m.Clockwise {
		// The sender believes it is our predecessor.
		if len(n.preds) == 0 || !n.preds[0].Valid() ||
			id.StrictBetween(m.Who.ID, n.preds[0].ID, n.Self.ID) {
			n.preds = insertFront(n.preds, m.Who, n.Cfg.Successors)
		}
		return
	}
	// The sender believes it is our successor.
	if len(n.succs) == 0 || !n.succs[0].Valid() ||
		id.StrictBetween(m.Who.ID, n.Self.ID, n.succs[0].ID) {
		n.succs = insertFront(n.succs, m.Who, n.Cfg.Successors)
	}
}

// insertFront puts p at the head of list, dropping duplicates and trimming
// to max entries.
func insertFront(list []Peer, p Peer, max int) []Peer {
	out := make([]Peer, 0, max)
	out = append(out, p)
	for _, q := range list {
		if q.ID == p.ID || !q.Valid() {
			continue
		}
		if len(out) >= max {
			break
		}
		out = append(out, q)
	}
	return out
}

// stabilize runs one round of the clockwise (successor) or anti-clockwise
// (predecessor) stabilization protocol.
func (n *Node) stabilize(clockwise bool) {
	if !n.running {
		return
	}
	var target Peer
	if clockwise {
		if len(n.succs) == 0 {
			n.recoverSuccessor()
			return
		}
		target = n.succs[0]
	} else {
		if len(n.preds) == 0 {
			return // repaired by successors' clockwise notifies
		}
		target = n.preds[0]
	}
	n.tr.Call(n.Self.Addr, target.Addr, StabilizeReq{Clockwise: clockwise}, n.Cfg.RPCTimeout,
		func(resp transport.Message, err error) {
			if !n.running {
				return
			}
			if err != nil {
				n.dropNeighbor(target, clockwise)
				return
			}
			r, ok := resp.(StabilizeResp)
			if !ok {
				return
			}
			n.absorbStabilize(target, r, clockwise)
		})
}

func (n *Node) absorbStabilize(target Peer, r StabilizeResp, clockwise bool) {
	// Identity check: after churn a NEW node may answer at the old
	// neighbor's address. Merging its table under the old identity would
	// poison the neighbor lists, so treat it as the old neighbor's death.
	if r.Table.Owner.ID != target.ID {
		n.dropNeighbor(target, clockwise)
		return
	}
	// Chord's predecessor probe, both ways: a node the neighbor knows
	// between itself and us becomes our nearest neighbor on that side.
	list, theirs, closer := &n.succs, r.Table.Successors, id.StrictBetween(r.Back.ID, n.Self.ID, target.ID)
	if !clockwise {
		list, theirs, closer = &n.preds, r.Table.Predecessors, id.StrictBetween(r.Back.ID, target.ID, n.Self.ID)
	}
	merged := mergeNeighborList(n.Self, target, theirs, n.Cfg.Successors)
	if r.Back.Valid() && closer {
		merged = insertFront(merged, r.Back, n.Cfg.Successors)
	}
	*list = merged
	if n.OnNeighborTable != nil {
		n.OnNeighborTable(target, r.Table)
	}
	if len(*list) > 0 {
		n.tr.Call(n.Self.Addr, (*list)[0].Addr,
			NotifyReq{Clockwise: clockwise, Who: n.Self}, n.Cfg.RPCTimeout,
			func(transport.Message, error) {})
	}
}

// mergeNeighborList computes [target] + target's own neighbor list, dropping
// self and duplicates, trimmed to max. This is exactly how Chord maintains
// successor lists, and (per §4.3) the node must keep the signed source table
// as its pollution proof — see OnNeighborTable.
func mergeNeighborList(self, target Peer, theirs []Peer, max int) []Peer {
	out := make([]Peer, 0, max)
	seen := map[id.ID]bool{self.ID: true}
	add := func(p Peer) {
		if len(out) >= max || !p.Valid() || seen[p.ID] {
			return
		}
		seen[p.ID] = true
		out = append(out, p)
	}
	add(target)
	for _, p := range theirs {
		add(p)
	}
	return out
}

func (n *Node) dropNeighbor(p Peer, clockwise bool) {
	filter := func(list []Peer) []Peer {
		out := list[:0]
		for _, q := range list {
			if q.ID != p.ID {
				out = append(out, q)
			}
		}
		return out
	}
	if clockwise {
		n.succs = filter(n.succs)
	} else {
		n.preds = filter(n.preds)
	}
	// A dead node is also purged from the fingertable so lookups stop
	// routing through it.
	for i, f := range n.fingers {
		if f.Valid() && f.ID == p.ID {
			n.fingers[i] = NoPeer
		}
	}
	if n.OnNeighborDropped != nil {
		n.OnNeighborDropped(p)
	}
}

// recoverSuccessor rebuilds an empty successor list from any live finger.
func (n *Node) recoverSuccessor() {
	for _, f := range n.validFingers() {
		n.succs = []Peer{f}
		return
	}
}

// fixNextFinger runs one finger-update lookup (§4.5) for the next slot in
// round-robin order.
func (n *Node) fixNextFinger() {
	if !n.running || n.Cfg.Fingers == 0 {
		return
	}
	slot := n.nextFix
	n.nextFix = (n.nextFix + 1) % n.Cfg.Fingers
	target := n.FingerTarget(slot)
	n.Lookup(target, func(owner Peer, _ LookupStats, err error) {
		if err != nil || !n.running || !owner.Valid() {
			return
		}
		n.SetFinger(slot, owner)
	})
}
