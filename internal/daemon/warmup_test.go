package daemon

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// TestLateProcessWarmsUp runs two static processes from one ring.json over
// loopback TCP, each building its half of the ring as octopusd -config does,
// and starts process B only after A has failed a dial to B. A holds what it
// sends B through its redial backoff, so none of B's relay-selection walks
// through A's nodes loses a forward or a reply to the start order: B's first
// node stocks a full relay-pair pool without a failed walk.
func TestLateProcessWarmsUp(t *testing.T) {
	eps := freePorts(t, 2)
	a, b := eps[0], eps[1]
	ring := filepath.Join(t.TempDir(), "ring.json")
	spec, err := json.Marshal(RingConfig{Seed: 7, Nodes: []string{a, a, a, a, b, b, b, b}, CA: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ring, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := LoadRingConfig(ring)
	if err != nil {
		t.Fatal(err)
	}
	cfg := (&daemon{opts: testOptions()}).coreConfig(len(rc.Nodes))
	start := func(ep string) (*nettransport.Transport, *core.Network) {
		tr, err := nettransport.New(nettransport.Config{
			Listen: ep, Self: ep,
			Endpoints: append(append([]string{}, rc.Nodes...), rc.CA),
			Seed:      rc.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		nw, err := core.BuildNetworkLocal(tr, len(rc.Nodes), cfg, tr.Local)
		if err != nil {
			t.Fatal(err)
		}
		return tr, nw
	}

	trA, _ := start(a)
	waitFor(t, 10*time.Second, "A to fail a dial to B", func() bool { return trA.SendDrops() > 0 })
	_, procB := start(b)
	var first *core.Node
	for _, node := range procB.Nodes {
		if node != nil && first == nil {
			first = node
		}
	}
	waitFor(t, 30*time.Second, "B's first node to stock its pool", func() bool {
		return first.PoolSize() >= cfg.PairPoolTarget
	})
	var failed uint64
	for _, node := range procB.Nodes {
		if node != nil {
			failed += node.Stats().WalksFailed.Load()
		}
	}
	if failed != 0 {
		t.Errorf("B's walks failed %d times while its first node stocked %d pairs, want 0", failed, cfg.PairPoolTarget)
	}
}
