package simnet

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Storm schedules scripted, correlated chaos against a simulated ring. Where
// Churner models the paper's gentle independent exponential-lifetime churn,
// a Storm models the hostile events robust-DHT evaluations care about: a
// large fraction of the ring dying at once, a flash crowd rejoining, a
// partition sweeping across the address space, and network-wide loss or
// jitter bursts.
//
// Like the Churner, the Storm only schedules events; membership changes
// themselves go through OnKill/OnRejoin, which are expected to drive the
// wire membership path (core.Network.Rejoin) so storm churn exercises
// exactly the code a real `octopusd -join` runs. Victim selection and event
// spreading draw from the simulator RNG, so a storm replays byte-identically
// from its seed, and every action is appended to a replayable event log.
type Storm struct {
	sim *Simulator
	net *Network

	// OnKill tears the node at addr down (before any replacement joins).
	OnKill func(addr Address)
	// OnRejoin brings a replacement node up on a previously killed slot.
	OnRejoin func(addr Address)

	// population is the set of slots subject to the storm, in address
	// order. Slots outside it (gateways, the CA) are never touched.
	population []Address
	// downSet tracks slots killed by the storm and not yet rejoined.
	downSet map[Address]bool

	killed   atomic.Uint64
	rejoined atomic.Uint64
	log      []LogEntry
}

// StormOp enumerates the scripted actions.
type StormOp int

const (
	// OpMassKill kills Frac of the currently-up population simultaneously.
	OpMassKill StormOp = iota
	// OpFlashRejoin rejoins every storm-killed slot, spread over Spread.
	OpFlashRejoin
	// OpRollingPartition sweeps an asymmetric partition across the
	// population in Groups consecutive windows: while a window is cut, its
	// members hear the ring but the ring never hears them. Each window
	// holds for Dur/Groups; the previous window heals as the next is cut.
	OpRollingPartition
	// OpLossBurst sets the network-wide loss probability to P for Dur.
	OpLossBurst
	// OpJitterBurst adds Uniform[0, Jitter) latency spikes with
	// probability P for Dur.
	OpJitterBurst
)

// String names an op for the event log.
func (op StormOp) String() string {
	switch op {
	case OpMassKill:
		return "mass-kill"
	case OpFlashRejoin:
		return "flash-rejoin"
	case OpRollingPartition:
		return "rolling-partition"
	case OpLossBurst:
		return "loss-burst"
	case OpJitterBurst:
		return "jitter-burst"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// StormEvent is one scripted action. At is the offset from Run.
type StormEvent struct {
	At time.Duration
	Op StormOp
	// Frac is the population fraction an OpMassKill takes down (0.4 kills
	// 40% of the currently-up population).
	Frac float64
	// Spread smears OpFlashRejoin joins uniformly over a window instead of
	// a single instant (a true flash crowd still arrives within seconds).
	Spread time.Duration
	// Dur bounds partition sweeps and bursts.
	Dur time.Duration
	// Groups is the number of windows an OpRollingPartition sweeps.
	Groups int
	// P is the loss (OpLossBurst) or spike (OpJitterBurst) probability.
	P float64
	// Jitter is the maximum added spike latency (OpJitterBurst).
	Jitter time.Duration
}

// LogEntry is one line of the storm's replayable event log.
type LogEntry struct {
	T    time.Duration
	What string
}

// NewStorm creates a storm over the given population slots. The network's
// fault layer is installed on demand by partition/burst events.
func NewStorm(net *Network, population []Address) *Storm {
	pop := append([]Address(nil), population...)
	sort.Slice(pop, func(i, j int) bool { return pop[i] < pop[j] })
	return &Storm{
		sim:        net.Sim(),
		net:        net,
		population: pop,
		downSet:    make(map[Address]bool),
	}
}

// Killed reports how many storm kills have fired. Safe from any goroutine.
func (s *Storm) Killed() uint64 { return s.killed.Load() }

// Rejoined reports how many storm rejoins have fired.
func (s *Storm) Rejoined() uint64 { return s.rejoined.Load() }

// Down reports how many storm-killed slots currently await a rejoin.
func (s *Storm) Down() int { return len(s.downSet) }

// Log returns the event log accumulated so far.
func (s *Storm) Log() []LogEntry { return append([]LogEntry(nil), s.log...) }

// FormatLog renders the event log one line per entry — the artifact a CI
// run uploads when a chaos suite fails, so the failing seed's storm can be
// read (and replayed) without rerunning anything.
func (s *Storm) FormatLog() string {
	var b strings.Builder
	for _, e := range s.log {
		fmt.Fprintf(&b, "%10.2fs  %s\n", e.T.Seconds(), e.What)
	}
	return b.String()
}

func (s *Storm) logf(format string, args ...any) {
	s.log = append(s.log, LogEntry{T: s.sim.Now(), What: fmt.Sprintf(format, args...)})
}

// Run schedules the whole script relative to the current virtual time. The
// caller drives the simulator as usual; events fire as the clock passes
// their offsets.
func (s *Storm) Run(script []StormEvent) {
	for _, ev := range script {
		ev := ev
		s.sim.After(ev.At, func() { s.fire(ev) })
	}
}

func (s *Storm) fire(ev StormEvent) {
	switch ev.Op {
	case OpMassKill:
		s.massKill(ev.Frac)
	case OpFlashRejoin:
		s.flashRejoin(ev.Spread)
	case OpRollingPartition:
		s.rollingPartition(ev.Dur, ev.Groups)
	case OpLossBurst:
		s.lossBurst(ev.P, ev.Dur)
	case OpJitterBurst:
		s.jitterBurst(ev.P, ev.Jitter, ev.Dur)
	}
}

// up returns the population slots not currently storm-killed, in address
// order (deterministic input to the victim shuffle).
func (s *Storm) up() []Address {
	out := make([]Address, 0, len(s.population))
	for _, a := range s.population {
		if !s.downSet[a] {
			out = append(out, a)
		}
	}
	return out
}

func (s *Storm) massKill(frac float64) {
	up := s.up()
	k := min(int(float64(len(up))*frac), len(up))
	// Victims are a seeded shuffle prefix: correlated (simultaneous), yet
	// replayable.
	perm := s.sim.Rand().Perm(len(up))
	s.logf("mass-kill: %d of %d up nodes (%.0f%%)", k, len(up), frac*100)
	for i := 0; i < k; i++ {
		addr := up[perm[i]]
		s.downSet[addr] = true
		s.killed.Add(1)
		if s.OnKill != nil {
			s.OnKill(addr)
		}
	}
}

func (s *Storm) flashRejoin(spread time.Duration) {
	// Deterministic iteration order: the down set sorted by address.
	down := make([]Address, 0, len(s.downSet))
	for a := range s.downSet {
		down = append(down, a)
	}
	sort.Slice(down, func(i, j int) bool { return down[i] < down[j] })
	s.logf("flash-rejoin: %d nodes over %v", len(down), spread)
	for _, addr := range down {
		addr := addr
		delete(s.downSet, addr)
		var dt time.Duration
		if spread > 0 {
			dt = time.Duration(s.sim.Rand().Int63n(int64(spread)))
		}
		s.sim.After(dt, func() {
			s.rejoined.Add(1)
			if s.OnRejoin != nil {
				s.OnRejoin(addr)
			}
		})
	}
}

func (s *Storm) rollingPartition(dur time.Duration, groups int) {
	if groups <= 0 || len(s.population) == 0 {
		return
	}
	hold := dur / time.Duration(groups)
	n := len(s.population)
	s.logf("rolling-partition: %d windows of %v over %d slots (asymmetric)", groups, hold, n)
	for g := 0; g < groups; g++ {
		g := g
		lo, hi := g*n/groups, (g+1)*n/groups
		if lo >= hi {
			continue // more windows than slots: nothing in this one
		}
		s.sim.After(time.Duration(g)*hold, func() {
			f := s.net.InstallFaults()
			// Asymmetric: the window's members still hear the ring, but
			// nothing they send gets out.
			for _, a := range s.population[lo:hi] {
				f.CutFrom(a)
			}
			s.logf("partition window %d/%d: egress cut for slots [%d, %d)",
				g+1, groups, s.population[lo], s.population[hi-1]+1)
		})
		s.sim.After(time.Duration(g+1)*hold, func() {
			f := s.net.InstallFaults()
			for _, a := range s.population[lo:hi] {
				f.HealFrom(a)
			}
			s.logf("partition window %d/%d healed", g+1, groups)
		})
	}
}

func (s *Storm) lossBurst(p float64, dur time.Duration) {
	f := s.net.InstallFaults()
	f.SetLoss(p)
	s.logf("loss-burst: %.0f%% loss for %v", p*100, dur)
	s.sim.After(dur, func() {
		f.SetLoss(0)
		s.logf("loss-burst ended")
	})
}

func (s *Storm) jitterBurst(p float64, max, dur time.Duration) {
	f := s.net.InstallFaults()
	f.SetJitter(p, max)
	s.logf("jitter-burst: %.0f%% spike chance up to %v for %v", p*100, max, dur)
	s.sim.After(dur, func() {
		f.SetJitter(0, 0)
		s.logf("jitter-burst ended")
	})
}
