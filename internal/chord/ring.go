package chord

import (
	"sort"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Ring builds and tracks a whole simulated Chord network. Experiments use it
// to create a consistent initial topology (the paper's simulator does the
// same: "we generate random network topologies", §5.1), to obtain ground
// truth for correctness checks, and to drive churn.
type Ring struct {
	cfg Config
	tr  transport.Transport
	// byAddr maps address slots to their current node (replaced on
	// churn).
	byAddr []*Node
}

// IdentityFactory mints an identity for a node at creation time. It may be
// nil for unsigned networks.
type IdentityFactory func(self Peer) *Identity

// BuildRing creates n nodes with random distinct identifiers, installs
// consistent routing state everywhere (correct fingers, successor and
// predecessor lists), binds every node, and starts its maintenance timers.
func BuildRing(tr transport.Transport, cfg Config, n int, identFor IdentityFactory) *Ring {
	r := BuildRingPaused(tr, cfg, n, identFor)
	r.StartLocal(nil)
	return r
}

// BuildRingPaused derives the same deterministic topology as BuildRing (every
// identifier, identity, and initial routing table comes from tr.Rand(), so
// processes sharing a transport seed derive identical rings) but starts
// nothing: no node is bound, no timer runs. Higher layers
// (internal/core) wire themselves onto the Node structs first — mutating an
// unstarted node is race-free on concurrent transports, whereas a started
// node may already be serving RPCs from its serialization context — and
// then start the nodes via StartLocal.
func BuildRingPaused(tr transport.Transport, cfg Config, n int, identFor IdentityFactory) *Ring {
	rng := tr.Rand()
	ids := make([]id.ID, 0, n)
	seen := make(map[id.ID]bool, n)
	for len(ids) < n {
		candidate := id.ID(rng.Uint64())
		if !seen[candidate] {
			seen[candidate] = true
			ids = append(ids, candidate)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	r := &Ring{cfg: cfg, tr: tr, byAddr: make([]*Node, n)}
	peers := make([]Peer, n)
	for i := range ids {
		peers[i] = Peer{ID: ids[i], Addr: transport.Addr(i)}
	}
	for _, p := range peers {
		var ident *Identity
		if identFor != nil {
			ident = identFor(p)
		}
		node := NewNode(tr, cfg, p, ident)
		r.byAddr[p.Addr] = node
	}
	for i := range peers {
		r.installState(r.byAddr[peers[i].Addr], peers, i)
	}
	return r
}

// StartLocal binds and starts every node for which local reports true (all
// of them when local is nil). It completes a BuildRingPaused build.
func (r *Ring) StartLocal(local func(transport.Addr) bool) {
	for _, node := range r.byAddr {
		if local == nil || local(node.Self.Addr) {
			node.Start()
		}
	}
}

// Peers returns every peer of the deployment's initial topology, sorted by
// identifier — including, unlike AlivePeers, nodes run by other processes
// of a partial build. Static multi-process deployments use it as the
// ground-truth ownership oracle.
func (r *Ring) Peers() []Peer {
	out := make([]Peer, 0, len(r.byAddr))
	for _, node := range r.byAddr {
		if node != nil {
			out = append(out, node.Self)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OwnerAmong returns the ground-truth owner of key within the full initial
// topology (see Peers). For single-process deployments under churn, use
// Owner, which consults liveness.
func (r *Ring) OwnerAmong(key id.ID) Peer {
	return successorOf(r.Peers(), key)
}

// installState fills a node's routing tables from the sorted global view.
func (r *Ring) installState(node *Node, sorted []Peer, pos int) {
	n := len(sorted)
	k := r.cfg.Successors
	succs := make([]Peer, 0, k)
	preds := make([]Peer, 0, k)
	for j := 1; j <= k && j < n; j++ {
		succs = append(succs, sorted[(pos+j)%n])
		preds = append(preds, sorted[(pos-j+n*k)%n])
	}
	node.SetSuccessors(succs)
	node.SetPredecessors(preds)
	for slot := 0; slot < r.cfg.Fingers; slot++ {
		target := node.FingerTarget(slot)
		node.SetFinger(slot, successorOf(sorted, target))
	}
}

// successorOf returns the first peer clockwise at or after key in a sorted
// peer list.
func successorOf(sorted []Peer, key id.ID) Peer {
	n := len(sorted)
	if n == 0 {
		return NoPeer
	}
	i := sort.Search(n, func(i int) bool { return sorted[i].ID >= key })
	if i == n {
		i = 0
	}
	return sorted[i]
}

// Size returns the number of address slots.
func (r *Ring) Size() int { return len(r.byAddr) }

// Node returns the current node at an address slot.
func (r *Ring) Node(addr transport.Addr) *Node {
	if addr < 0 || int(addr) >= len(r.byAddr) {
		return nil
	}
	return r.byAddr[addr]
}

// Nodes returns the current node at every slot.
func (r *Ring) Nodes() []*Node {
	out := make([]*Node, len(r.byAddr))
	copy(out, r.byAddr)
	return out
}

// AlivePeers returns the peers of all currently running nodes, sorted by ID.
func (r *Ring) AlivePeers() []Peer {
	out := make([]Peer, 0, len(r.byAddr))
	for _, node := range r.byAddr {
		if node != nil && node.Running() {
			out = append(out, node.Self)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Owner returns the ground-truth owner of key among currently alive nodes.
func (r *Ring) Owner(key id.ID) Peer {
	return successorOf(r.AlivePeers(), key)
}

// Replace installs a new node at an address slot. Dynamic-membership
// drivers (core.Network.Rejoin) use it after the replacement's online join
// succeeds, so the ring's ground-truth view tracks live membership.
func (r *Ring) Replace(addr transport.Addr, node *Node) {
	if addr >= 0 && int(addr) < len(r.byAddr) {
		r.byAddr[addr] = node
	}
}

// Kill stops the node at addr (churn death).
func (r *Ring) Kill(addr transport.Addr) {
	if node := r.Node(addr); node != nil {
		node.Stop()
	}
}

// Rejoin replaces the node at addr with a fresh identity that joins through
// a random live node, mirroring the paper's churn model where every death is
// matched by a join. Returns the new node, or nil if no bootstrap exists.
func (r *Ring) Rejoin(addr transport.Addr, identFor IdentityFactory) *Node {
	rng := r.tr.Rand()
	alive := r.AlivePeers()
	if len(alive) == 0 {
		return nil
	}
	bootstrap := alive[rng.Intn(len(alive))]
	self := Peer{ID: id.ID(rng.Uint64()), Addr: addr}
	var ident *Identity
	if identFor != nil {
		ident = identFor(self)
	}
	node := NewNode(r.tr, r.cfg, self, ident)
	r.byAddr[addr] = node
	node.Start()
	node.Join(bootstrap, func(error) {})
	return node
}
