package simnet_test

import (
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// TestSimnetConformance runs the shared transport conformance suite against
// the deterministic simulator backend.
func TestSimnetConformance(t *testing.T) {
	transporttest.RunConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		sim := simnet.New(1)
		net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, hosts)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { sim.Run(sim.Now() + d) },
		}
	})
}

// TestSimnetLookupConformance runs the concurrent-lookup suite on the
// simulator: the submissions interleave in virtual time, pinning the
// α-parallel engine and the managed pool deterministically.
func TestSimnetLookupConformance(t *testing.T) {
	transporttest.RunLookupConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		sim := simnet.New(13)
		net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, hosts)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { sim.Run(sim.Now() + d) },
		}
	})
}

// TestSimnetChurnConformance runs the dynamic-membership suite — online
// join, simultaneous joins, graceful leave, failure suspicion — on the
// simulator backend.
func TestSimnetChurnConformance(t *testing.T) {
	transporttest.RunChurnConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		sim := simnet.New(7)
		net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, hosts)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { sim.Run(sim.Now() + d) },
		}
	})
}

// TestSimnetFaultConformance runs the hostile-network suite — lossy link,
// mid-RPC partition, storm join/leave — deterministically on the simulator.
func TestSimnetFaultConformance(t *testing.T) {
	transporttest.RunFaultConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		sim := simnet.New(17)
		net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, hosts)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { sim.Run(sim.Now() + d) },
		}
	})
}

// TestSimnetCloseContract runs the Close-contract suite on the simulator.
// It has no Close, so each call must settle exactly once as the virtual
// clock runs past its deadline; a response that arrives after the timeout
// is dropped.
func TestSimnetCloseContract(t *testing.T) {
	transporttest.RunCloseContract(t, func(t *testing.T, hosts int) transporttest.Harness {
		sim := simnet.New(1)
		net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, hosts)
		return transporttest.Harness{
			Tr:      net,
			Advance: func(d time.Duration) { sim.Run(sim.Now() + d) },
		}
	}, 20_000)
}
