package nettransport_test

import (
	"testing"

	"github.com/octopus-dht/octopus/internal/core/routingtiertest"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// TestNetTransportRoutingTierConformance certifies both routing tiers over
// two processes, half the tier maintenance traffic on real TCP loopback
// sockets: framing, reconnects, and wall-clock timers all sit under it.
func TestNetTransportRoutingTierConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("routing tier conformance over TCP is slow; skipped with -short")
	}
	routingtiertest.Run(t, func(t *testing.T, hosts int) transporttest.Harness {
		return newSplit(t, hosts).harness(true)
	})
}

// TestNetTransportOneProcessRoutingTierConformance certifies both routing
// tiers with every slot in one process: tier maintenance (EDRA flushes,
// sync paging) races real host goroutines under -race.
func TestNetTransportOneProcessRoutingTierConformance(t *testing.T) {
	routingtiertest.Run(t, oneProcHarness(true))
}
