package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
)

// The harness every seeded run is built from: one deployment, one arrival
// process, one store workload, one rejoin. Each piece draws from the streams
// its caller hands it, in the order the caller hands them, so two runs of
// one (seed, config) replay event for event.

// deploy builds an n-node Octopus ring plus its CA over a fresh simulator
// seeded with seed. A build failure is harness misconfiguration, not a
// measurable outcome, so it panics rather than return a silent zero result.
func deploy(seed int64, lat simnet.LatencyModel, n int, cfg core.Config) (*simnet.Simulator, *simnet.Network, *core.Network) {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, lat, n+1) // +1: the CA's address slot
	nw, err := core.BuildNetwork(net, n, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: build failed: %v", err))
	}
	return sim, net, nw
}

// poisson runs an open-loop Poisson arrival process: exponential gaps at
// rate per second, drawn from rng, until stop reports true. Each arrival
// draws its choices from the same rng before the next gap is drawn.
func poisson(sim *simnet.Simulator, rng *rand.Rand, rate float64, stop func() bool, arrive func(rng *rand.Rand)) {
	var next func()
	next = func() {
		sim.After(time.Duration(rng.ExpFloat64()/rate*float64(time.Second)), func() {
			if stop() {
				return
			}
			arrive(rng)
			next()
		})
	}
	next()
}

// until reports whether the simulator's clock has reached end.
func until(sim *simnet.Simulator, end time.Duration) func() bool {
	return func() bool { return sim.Now() >= end }
}

// kvTally points at the store counters of one result. Gets split into
// Hits, Misses (the key had an acknowledged write but no replica answered)
// and Unwritten (reads of keys never yet written — correct negatives).
type kvTally struct{ gets, hits, misses, unwritten, puts, putOK *int }

// kvMix is the store workload: each arrival picks a gateway, a key from the
// working set and a read or a write. An operation lands in whichever tally
// is current when it completes; a read is judged against the writes
// acknowledged when it was issued, since a Put may be acknowledged mid-Get.
type kvMix struct {
	sim            *simnet.Simulator
	stores         []*store.Store // gateways are stores[:gateways]
	gateways       int
	keys           []id.ID
	read           float64
	value          string // format of the seq-th written value
	acked          map[id.ID]bool
	seq            int
	tally          kvTally
	getLat, putLat metrics.Sample
}

func newKVMix(sim *simnet.Simulator, stores []*store.Store, gateways, keys int, read float64, keyFmt, valueFmt string) *kvMix {
	m := &kvMix{sim: sim, stores: stores, gateways: gateways, read: read, value: valueFmt, acked: make(map[id.ID]bool)}
	m.keys = make([]id.ID, keys)
	for i := range m.keys {
		m.keys[i] = id.FromBytes([]byte(fmt.Sprintf(keyFmt, i)))
	}
	return m
}

// arrive issues one operation with its choices drawn from rng.
func (m *kvMix) arrive(rng *rand.Rand) {
	gw := m.stores[rng.Intn(m.gateways)]
	key := m.keys[rng.Intn(len(m.keys))]
	start := m.sim.Now()
	if rng.Float64() < m.read {
		written := m.acked[key]
		gw.Get(key, func(r store.GetResult) {
			m.getLat.AddDuration(m.sim.Now() - start)
			t := m.tally
			*t.gets++
			switch {
			case r.Found:
				*t.hits++
			case !written:
				*t.unwritten++
			default:
				*t.misses++
			}
		})
		return
	}
	m.seq++
	gw.Put(key, []byte(fmt.Sprintf(m.value, m.seq)), func(r store.PutResult) {
		m.putLat.AddDuration(m.sim.Now() - start)
		t := m.tally
		*t.puts++
		if r.Err == nil {
			*t.putOK++
			m.acked[key] = true
		}
	})
}

func startStore(node *core.Node, cfg store.Config) *store.Store {
	st := store.New(node, cfg)
	st.Start()
	return st
}

// startStores starts one store per node of the deployment.
func startStores(nw *core.Network, cfg store.Config) []*store.Store {
	stores := make([]*store.Store, len(nw.Nodes))
	for i, node := range nw.Nodes {
		stores[i] = startStore(node, cfg)
	}
	return stores
}

var errNoBootstrap = errors.New("experiments: no live node to join through")

// rejoinRandom brings a fresh identity into slot addr through a live node
// drawn from rng. It takes the wire path a real joiner takes
// (core.Network.Rejoin): a certificate from the CA over the simulated
// network, then the JoinReq handshake. onJoined fires once, with the
// running node or the failure.
func rejoinRandom(nw *core.Network, rng *rand.Rand, addr transport.Addr, cfg core.Config, onJoined func(*core.Node, error)) {
	alive := nw.Ring.AlivePeers()
	if len(alive) == 0 {
		onJoined(nil, errNoBootstrap)
		return
	}
	nw.Rejoin(addr, alive[rng.Intn(len(alive))], cfg, onJoined)
}
