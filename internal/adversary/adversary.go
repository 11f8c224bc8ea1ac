// Package adversary implements the paper's threat model (§3.2): a partial
// adversary controlling a fraction f of the nodes, all colluding over an
// out-of-band channel. It provides the concrete active attacks evaluated in
// §5 — lookup bias, fingertable manipulation, fingertable pollution, and
// selective denial of service — as behaviours installed onto simulated
// Octopus nodes, plus the end-to-end timing-analysis attack of §4.7
// (timing.go).
package adversary

import (
	"math/rand"
	"slices"
	"sort"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// Strategy selects which active attacks the colluding nodes mount and how
// aggressively.
type Strategy struct {
	// AttackRate is the probability a malicious node manipulates any
	// given response (Figures 3–4 use 100 % and 50 %).
	AttackRate float64
	// BiasLookups manipulates served successor lists: honest successors
	// are replaced by nearby colluders (falling back to omission when no
	// colluder is close enough), biasing lookup results (§4.3).
	BiasLookups bool
	// ManipulateFingers redirects served fingertable entries to the
	// nearest colluder that still passes bound checking (§4.4), biasing
	// random walks and creating more malicious observation points.
	ManipulateFingers bool
	// ConsistentPredRate is the probability that a checked malicious
	// node backs a colluder's story: F' serves an all-colluder
	// predecessor list, and a probed malicious predecessor serves a
	// successor list consistent with the manipulated finger (Table 2
	// uses 50 %).
	ConsistentPredRate float64
	// SelectiveDrop makes malicious relays silently drop the anonymous-
	// path traffic they carry (Appendix II, Fig. 9).
	SelectiveDrop bool
}

// Adversary tracks the colluding population installed on a network.
type Adversary struct {
	Members map[simnet.Address]bool
	// Colluders lists the malicious peers sorted by ring position, the
	// shared knowledge every member uses to pick plausible stand-ins.
	Colluders []chord.Peer

	strategy Strategy
	rng      *rand.Rand
	nw       *core.Network

	// BiasedResponses counts manipulated responses actually served.
	BiasedResponses uint64
}

// Install selects ⌊f·N⌋ random nodes as malicious and installs the chosen
// strategy on each. It must run before the simulation advances.
func Install(nw *core.Network, f float64, strategy Strategy, rng *rand.Rand) *Adversary {
	n := len(nw.Nodes)
	count := int(f * float64(n))
	perm := rng.Perm(n)
	adv := &Adversary{
		Members:  make(map[simnet.Address]bool, count),
		strategy: strategy,
		rng:      rng,
		nw:       nw,
	}
	for _, idx := range perm[:count] {
		addr := simnet.Address(idx)
		adv.Members[addr] = true
		adv.Colluders = append(adv.Colluders, nw.Nodes[idx].Self())
	}
	sort.Slice(adv.Colluders, func(i, j int) bool {
		return adv.Colluders[i].ID < adv.Colluders[j].ID
	})
	for addr := range adv.Members {
		adv.corrupt(nw.Node(addr))
	}
	return adv
}

// IsMalicious reports membership.
func (a *Adversary) IsMalicious(addr simnet.Address) bool { return a.Members[addr] }

// AliveMembers counts colluders still in the network.
func (a *Adversary) AliveMembers() int {
	alive := 0
	for addr := range a.Members {
		if node := a.nw.Node(addr); node != nil && node.Chord.Running() &&
			a.Members[addr] {
			alive++
		}
	}
	return alive
}

// ReplaceAt transfers malicious membership to a replacement node after
// churn: the paper's churn model keeps the malicious fraction constant, so
// a dead colluder's replacement joins the collusion. No-op for addresses
// that were honest.
func (a *Adversary) ReplaceAt(addr simnet.Address, node *core.Node) {
	if !a.Members[addr] || node == nil {
		return
	}
	// Drop the dead colluder's peer record and add the replacement.
	dead := func(c chord.Peer) bool { return c.Addr == addr }
	a.Colluders = append(slices.DeleteFunc(a.Colluders, dead), node.Self())
	sort.Slice(a.Colluders, func(i, j int) bool {
		return a.Colluders[i].ID < a.Colluders[j].ID
	})
	a.corrupt(node)
}

// corrupt installs the strategy hooks on one node.
func (a *Adversary) corrupt(node *core.Node) {
	self := node.Chord.Self
	ident := node.Chord.Identity()
	node.Chord.Intercept = func(_ simnet.Address, req, honest simnet.Message, ok bool) (simnet.Message, bool) {
		if !ok {
			return honest, ok
		}
		resp, isTable := honest.(chord.GetTableResp)
		if !isTable {
			return honest, ok
		}
		if a.rng.Float64() >= a.strategy.AttackRate {
			return honest, ok
		}
		table := resp.Table.Clone()
		changed := false
		if a.strategy.BiasLookups && len(table.Successors) > 0 {
			table.Successors = a.forgeSuccessors(self, table.Successors)
			changed = true
		}
		if a.strategy.ManipulateFingers && len(table.Fingers) > 0 {
			changed = a.forgeFingers(&table) || changed
		}
		if a.strategy.ConsistentPredRate > 0 && len(table.Predecessors) > 0 &&
			a.rng.Float64() < a.strategy.ConsistentPredRate {
			table.Predecessors = a.forgePredecessors(self, table.Predecessors)
			changed = true
		}
		if !changed {
			return honest, ok
		}
		if ident != nil {
			_ = table.Sign(ident.Scheme, ident.Key)
		}
		a.BiasedResponses++
		return chord.GetTableResp{Table: table}, true
	}
	if a.strategy.SelectiveDrop {
		// A selective-DoS relay (Appendix II) silently discards relayed
		// queries before the Octopus layer sees them: no receipt, no
		// forward.
		deliver := node.Chord.Extra
		node.Chord.Extra = func(from simnet.Address, req simnet.Message) (simnet.Message, bool) {
			if _, relayed := req.(core.RelayForward); relayed && a.rng.Float64() < a.strategy.AttackRate {
				return nil, false
			}
			return deliver(from, req)
		}
	}
}

// colluderAfter returns the first colluder clockwise at or after x (other
// than `not`), if any.
func (a *Adversary) colluderAfter(x id.ID, not id.ID) (chord.Peer, bool) {
	n := len(a.Colluders)
	if n == 0 {
		return chord.NoPeer, false
	}
	i := sort.Search(n, func(i int) bool { return a.Colluders[i].ID >= x })
	for k := 0; k < n; k++ {
		c := a.Colluders[(i+k)%n]
		if c.ID != not {
			return c, true
		}
	}
	return chord.NoPeer, false
}

// forgeSuccessors implements the lookup-bias manipulation: replace the
// successor list with the colluders nearest after the owner so that any key
// landing just past the owner resolves to a colluder. When no colluder is
// near, fall back to omitting the closest honest successors (keeping the
// farthest so the list still "looks" complete).
func (a *Adversary) forgeSuccessors(self chord.Peer, honest []chord.Peer) []chord.Peer {
	k := len(honest)
	out := make([]chord.Peer, 0, k)
	cursor := self.ID.Add(1)
	for len(out) < k {
		c, ok := a.colluderAfter(cursor, self.ID)
		if !ok || (len(out) > 0 && c.ID == out[0].ID) {
			break // wrapped around the colluder set
		}
		out = append(out, c)
		cursor = c.ID.Add(1)
	}
	if len(out) == 0 {
		// Omission fallback: serve only the farthest honest successor.
		return honest[len(honest)-1:]
	}
	return out
}

// forgeFingers redirects each finger to the closest colluder at or after
// its ideal position, leaving slots alone when no colluder would pass the
// initiator's bound check. Returns whether anything changed.
func (a *Adversary) forgeFingers(table *chord.RoutingTable) bool {
	changed := false
	for i := range table.Fingers {
		ideal, ok := table.IdealOf(i)
		if !ok {
			continue
		}
		c, ok := a.colluderAfter(ideal, table.Owner.ID)
		if !ok || c.ID == table.Fingers[i].ID {
			continue
		}
		// Only redirect when the colluder stays plausibly close to the
		// ideal — i.e. not farther than the honest finger by much —
		// otherwise bound checking would flag it immediately.
		if ideal.Distance(c.ID) < 4*ideal.Distance(table.Fingers[i].ID)+1 {
			table.Fingers[i] = c
			changed = true
		}
	}
	return changed
}

// forgePredecessors serves an all-colluder predecessor list (the §4.4
// evasion: F' hides its honest predecessors so the consistency probe lands
// on a colluder).
func (a *Adversary) forgePredecessors(self chord.Peer, honest []chord.Peer) []chord.Peer {
	k := len(honest)
	out := make([]chord.Peer, 0, k)
	// Walk anti-clockwise from self through the colluder set.
	n := len(a.Colluders)
	if n == 0 {
		return honest
	}
	i := sort.Search(n, func(i int) bool { return a.Colluders[i].ID >= self.ID })
	for step := 1; step <= n && len(out) < k; step++ {
		c := a.Colluders[((i-step)%n+n)%n]
		if c.ID == self.ID {
			continue
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return honest
	}
	return out
}
