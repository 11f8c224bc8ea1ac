// Package octopus is a from-scratch Go implementation of "Octopus: A Secure
// and Anonymous DHT Lookup" (Wang, ICDCS 2012): a Chord-based distributed
// hash table whose lookups hide both the initiator and the target from a
// colluding fraction of the network, and whose secret surveillance
// mechanisms identify and evict actively-misbehaving nodes.
//
// This package is the public facade: it builds a complete in-process
// Octopus deployment on the repository's deterministic event simulator and
// exposes a synchronous API for lookups, key/value-style resolution, and
// protocol introspection. The full machinery (anonymous relay paths, random
// walks, dummy queries, surveillance, CA investigations) runs underneath
// exactly as in the paper. The protocol stack itself is transport-agnostic
// (internal/transport): the simulator used here is one backend, the
// concurrent channel transport (internal/transport/chantransport) runs the
// same state machines over real goroutines with every message serialized
// through the binary wire codec, and the socket transport
// (internal/transport/nettransport) runs them across OS processes over TCP
// — see cmd/octopusd and docs/DEPLOYMENT.md for multi-process deployments,
// and README.md for the architecture map.
//
// # Quick start
//
//	net, err := octopus.New(octopus.Defaults(64))
//	if err != nil { ... }
//	net.Warm(2 * time.Minute) // stock anonymization relay pools
//	res, err := net.Lookup(0, []byte("my-key"))
//	fmt.Println(res.Owner, res.Latency)
package octopus

import (
	"errors"
	"fmt"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// Config selects the deployment parameters. Zero values fall back to the
// paper's defaults (§5.1).
type Config struct {
	// Nodes is the network size.
	Nodes int
	// Dummies is the number of dummy queries blended into each lookup.
	Dummies int
	// WalkEvery is the relay-selection random-walk period.
	WalkEvery time.Duration
	// SurveilEvery is the period of the secret security checks.
	SurveilEvery time.Duration
	// MeanRTT calibrates the synthetic WAN latency model.
	MeanRTT time.Duration
	// DoSDefense arms the Appendix II dropped-query reporting.
	DoSDefense bool
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64
}

// Defaults returns the paper's configuration for a network of n nodes.
func Defaults(n int) Config {
	return Config{
		Nodes:   n,
		Dummies: 6,
		MeanRTT: king.DefaultMeanRTT,
		Seed:    1,
	}
}

// Result describes one completed anonymous lookup.
type Result struct {
	// Owner is the ring identifier of the node owning the key.
	Owner string
	// OwnerIndex is the owning node's index in the deployment.
	OwnerIndex int
	// Queries and Dummies count the real and dummy queries sent.
	Queries int
	Dummies int
	// Latency is the lookup's virtual duration.
	Latency time.Duration
}

// Network is a running in-process Octopus deployment.
type Network struct {
	cfg   Config
	inner *core.Network
	sim   *simnet.Simulator
}

// ErrLookup wraps lookup failures surfaced through the facade.
var ErrLookup = errors.New("octopus: lookup failed")

// New builds and starts a deployment: n nodes with CA-issued identities,
// consistent initial routing state, and all protocol timers running.
func New(cfg Config) (*Network, error) {
	if cfg.Nodes < 8 {
		return nil, fmt.Errorf("octopus: need at least 8 nodes, got %d", cfg.Nodes)
	}
	sim := simnet.New(cfg.Seed)
	coreCfg := core.DefaultConfig()
	coreCfg.EstimatedSize = cfg.Nodes
	coreCfg.DoSDefense = cfg.DoSDefense
	if cfg.Dummies > 0 {
		coreCfg.Dummies = cfg.Dummies
	}
	if cfg.WalkEvery > 0 {
		coreCfg.WalkEvery = cfg.WalkEvery
	}
	if cfg.SurveilEvery > 0 {
		coreCfg.SurveilEvery = cfg.SurveilEvery
	}
	meanRTT := cfg.MeanRTT
	if meanRTT <= 0 {
		meanRTT = king.DefaultMeanRTT
	}
	lat := king.NewWith(cfg.Seed, meanRTT, king.DefaultSigma)
	net := simnet.NewNetwork(sim, lat, cfg.Nodes+1) // +1: the CA's address slot
	inner, err := core.BuildNetwork(net, cfg.Nodes, coreCfg)
	if err != nil {
		return nil, err
	}
	return &Network{cfg: cfg, inner: inner, sim: sim}, nil
}

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.inner.Nodes) }

// Now returns the deployment's virtual time.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// Warm advances virtual time so the relay-selection walks can stock every
// node's anonymization pool. Two minutes suffice with the default walk
// period.
func (n *Network) Warm(d time.Duration) {
	n.sim.Run(n.sim.Now() + d)
}

// Lookup anonymously resolves the owner of an arbitrary byte key from the
// given node, advancing virtual time until the lookup completes.
func (n *Network) Lookup(from int, key []byte) (Result, error) {
	return n.lookup(from, id.FromBytes(key))
}

// LookupID resolves a raw ring position (hex identifiers from NodeID).
func (n *Network) LookupID(from int, ringID string) (Result, error) {
	var raw uint64
	if _, err := fmt.Sscanf(ringID, "%016x", &raw); err != nil {
		return Result{}, fmt.Errorf("octopus: bad ring id %q: %w", ringID, err)
	}
	return n.lookup(from, id.ID(raw))
}

func (n *Network) lookup(from int, key id.ID) (Result, error) {
	if from < 0 || from >= len(n.inner.Nodes) {
		return Result{}, fmt.Errorf("octopus: node index %d out of range", from)
	}
	node := n.inner.Nodes[from]
	var (
		res  Result
		err  error
		done bool
	)
	node.AnonLookup(key, func(owner chord.Peer, stats core.LookupStats, lerr error) {
		done = true
		if lerr != nil {
			err = fmt.Errorf("%w: %v", ErrLookup, lerr)
			return
		}
		res = Result{
			Owner:      owner.ID.String(),
			OwnerIndex: int(owner.Addr),
			Queries:    stats.Queries,
			Dummies:    stats.Dummies,
			Latency:    stats.Latency(),
		}
	})
	deadline := n.sim.Now() + 5*time.Minute
	for !done && n.sim.Now() < deadline {
		n.sim.Run(n.sim.Now() + time.Second)
	}
	if !done {
		return Result{}, fmt.Errorf("%w: no completion before deadline", ErrLookup)
	}
	return res, err
}

// NodeID returns the ring identifier of a node by index.
func (n *Network) NodeID(index int) string {
	if index < 0 || index >= len(n.inner.Nodes) {
		return ""
	}
	return n.inner.Nodes[index].Self().ID.String()
}

// OwnerOf returns the ground-truth owner index for a key (for verification
// in tests and examples; real deployments have no such oracle).
func (n *Network) OwnerOf(key []byte) int {
	return int(n.inner.Ring.Owner(id.FromBytes(key)).Addr)
}

// Stats summarizes one node's protocol activity.
type Stats struct {
	LookupsCompleted uint64
	LookupsFailed    uint64
	QueriesSent      uint64
	DummiesSent      uint64
	WalksCompleted   uint64
	RelayPoolSize    int
	ChecksRun        uint64
	ReportsSent      uint64
}

// NodeStats returns a node's activity counters.
func (n *Network) NodeStats(index int) Stats {
	if index < 0 || index >= len(n.inner.Nodes) {
		return Stats{}
	}
	node := n.inner.Nodes[index]
	s := node.Stats()
	return Stats{
		LookupsCompleted: s.LookupsCompleted.Load(),
		LookupsFailed:    s.LookupsFailed.Load(),
		QueriesSent:      s.QueriesSent.Load(),
		DummiesSent:      s.DummiesSent.Load(),
		WalksCompleted:   s.WalksCompleted.Load(),
		RelayPoolSize:    node.PoolSize(),
		ChecksRun:        s.ChecksRun.Load(),
		ReportsSent:      s.ReportsSent.Load(),
	}
}

// CAStats summarizes the certificate authority's casework.
type CAStats struct {
	Reports        uint64
	Investigations uint64
	Revocations    uint64
	FalseAlarms    uint64
}

// CA returns the deployment CA's casework counters.
func (n *Network) CA() CAStats {
	s := n.inner.CA.Stats()
	return CAStats{
		Reports:        s.ReportsReceived,
		Investigations: s.Investigations,
		Revocations:    s.Revocations,
		FalseAlarms:    s.FalseAlarms,
	}
}

// Internal exposes the underlying simulation network for advanced uses
// (the examples use it to install adversaries and inspect protocol state).
func (n *Network) Internal() *core.Network { return n.inner }
