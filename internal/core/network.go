package core

import (
	"fmt"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Network is a complete Octopus deployment over one transport: the node
// population, the certificate directory, and the CA bound one address past
// the ring.
type Network struct {
	Net   transport.Transport
	Ring  *chord.Ring
	Nodes []*Node
	Dir   *Directory
	Auth  *xcrypto.CA
	CA    *CA
}

// BuildNetwork creates n Octopus nodes with consistent initial routing
// state, CA-issued identities, and all protocol timers running, over any
// transport with at least n+1 address slots. The CA occupies address n. By
// default a revocation ejects the node from the network (its certificate is
// void, so peers stop talking to it), which is modelled by stopping it.
func BuildNetwork(tr transport.Transport, n int, cfg Config) (*Network, error) {
	return BuildNetworkLocal(tr, n, cfg, nil)
}

// BuildNetworkLocal is BuildNetwork for one process of a multi-process
// deployment (cmd/octopusd over nettransport): every process derives the
// identical deployment — ring identifiers, key material, CA identity, and
// certificate directory all come deterministically from tr.Rand(), so
// processes sharing a transport seed agree on all of it without exchanging
// a byte — but each binds and starts only the nodes for which local reports
// true. Remote slots stay nil in Nodes; their addresses are served by other
// processes over the transport. The CA is constructed everywhere (its
// verdict logic is pure given the shared directory) but its address is only
// bound in the process whose local set contains slot n; on a partial
// transport the other processes' Bind is a no-op. A nil local starts
// everything, which is exactly BuildNetwork.
func BuildNetworkLocal(tr transport.Transport, n int, cfg Config,
	local func(transport.Addr) bool) (*Network, error) {
	// Both in-tree transports expose their slot count; a transport too
	// small for the CA slot would otherwise degrade silently (Bind on an
	// out-of-range address is a no-op, so every report would just time
	// out and the security machinery would be disabled without an error).
	if sized, ok := tr.(interface{ Size() int }); ok && sized.Size() < n+1 {
		return nil, fmt.Errorf("core: transport has %d address slots, need %d (n nodes + the CA)",
			sized.Size(), n+1)
	}
	dir := NewDirectory(xcrypto.SimScheme{})
	auth, err := xcrypto.NewCA(dir.Scheme(), tr.Rand())
	if err != nil {
		return nil, err
	}
	dir.SetCAKey(auth.PublicKey())

	identFor := NewIdentityFactory(dir, auth, tr.Rand())
	// The ring is built paused: on a concurrent transport a started node
	// is already serving RPCs from its serialization context, so the core
	// wrap below (which mutates the chord node) must happen before any
	// node goes live.
	ring := chord.BuildRingPaused(tr, cfg.Chord, n, identFor)

	caAddr := transport.Addr(n)
	ca := NewCA(tr, caAddr, dir, auth)

	nw := &Network{
		Net:   tr,
		Ring:  ring,
		Nodes: make([]*Node, n),
		Dir:   dir,
		Auth:  auth,
		CA:    ca,
	}
	for i, cn := range ring.Nodes() {
		if local != nil && !local(cn.Self.Addr) {
			continue
		}
		nw.Nodes[i] = New(cn, cfg, caAddr, dir)
	}
	ca.OnRevoke = func(p chord.Peer, _ ReportKind) { nw.Eject(p) }
	ring.StartLocal(local)
	// Ground truth for full-state tiers, computed once: per-node
	// AlivePeers copies would cost O(n²) allocations at 10k nodes.
	var seedPeers []chord.Peer
	if cfg.RoutingTier == TierOneHop {
		seedPeers = ring.AlivePeers()
	}
	for _, node := range nw.Nodes {
		if node == nil {
			continue
		}
		node := node
		// Octopus timers start from inside the host's serialization
		// context: the chord layer is live by now, so a plain
		// StartProtocols call from the builder goroutine would race
		// with traffic already being served. Full-state tiers are seeded
		// with the built ring's ground truth first — the converged
		// steady state a real deployment reaches once joins complete —
		// so 10k-node experiments skip n² build-time sync traffic.
		tr.After(node.Chord.Self.Addr, 0, func() {
			if seedPeers != nil {
				node.SeedTier(seedPeers)
			}
			node.StartProtocols()
		})
	}
	return nw, nil
}

// Node returns the Octopus node at an address slot.
func (nw *Network) Node(addr transport.Addr) *Node {
	if addr < 0 || int(addr) >= len(nw.Nodes) {
		return nil
	}
	return nw.Nodes[addr]
}

// Eject removes a revoked node from the network: with a void certificate
// no peer accepts its messages, so the node is equivalent to dead.
func (nw *Network) Eject(p chord.Peer) {
	if node := nw.Node(p.Addr); node != nil && node.Chord.Self.ID == p.ID {
		node.Stop()
	}
}
