package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// The simulator workload: a 1000-node finger ring on king latencies, the
// serving configuration with the result cache off (every lookup runs end to
// end), four LookupService nodes under an open-loop arrival stream. It
// measures host time — what bounds every experiment in the repository — so
// the work is fixed and the clock is the result: the virtual schedule is a
// function of -seconds alone, sized so that the reference box spends about
// that long on it.
const (
	simNodes   = 1000
	simServing = 8
	simClients = 16
	simRate    = 8 // lookups per second of virtual time
	// simWarmUp lets walks stock the relay pools before load arrives. It is
	// part of set-up, as waiting for the gateway's pool is for the tcp
	// workloads; the measured part is the load window and the drain.
	simWarmUp    = 60 * time.Second
	simDrain     = 30 * time.Second
	simWindowPer = 5 * time.Second // virtual window per requested second

	// simSeed fixes the simulated network — identifiers, keys, latencies and
	// the protocol's own randomness — for every run; the workload seed
	// drives the arrival times and the keys looked up. With the network
	// drawn from the workload seed, the simulated latency of the four
	// serving nodes differed by 20-30 % from seed to seed (where they sit in
	// the ring and in the latency matrix), which says nothing about code.
	simSeed = 1

	simSetupRepeats = 3
)

// simRun is one built simulated deployment.
type simRun struct {
	sim    *simnet.Simulator
	net    *simnet.Network
	traced *tracedNet // nil in the untraced run
	nw     *core.Network
}

// buildSim constructs the deployment and runs it through the warm-up; its
// duration is the workload's setup_s.
func buildSim(traced bool) (*simRun, error) {
	sim := simnet.New(simSeed)
	net := simnet.NewNetwork(sim, king.New(simSeed), simNodes+1)
	run := &simRun{sim: sim, net: net}
	var tr transport.Transport = net
	if traced {
		run.traced = newTracedNet(net)
		tr = run.traced
	}
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = simNodes
	cfg.LookupCacheSize = 0
	nw, err := core.BuildNetwork(tr, simNodes, cfg)
	if err != nil {
		return nil, fmt.Errorf("build simulated network: %w", err)
	}
	run.nw = nw
	sim.Run(simWarmUp)
	return run, nil
}

// bytesSent sums the simulated transport's sent bytes over every host.
func (r *simRun) bytesSent() uint64 {
	var total uint64
	for a := 0; a <= simNodes; a++ {
		total += r.net.Stats(transport.Addr(a)).BytesSent
	}
	return total
}

// cpuClassSeconds reads the runtime's own CPU accounting: seconds spent in
// the garbage collector, and seconds spent on anything at all.
func cpuClassSeconds() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func runSim(seed int64, seconds int, traced bool) (*wlResult, error) {
	res := newResult(wlSim)

	// Set-up is repeated and its median reported; the last build is used.
	var run *simRun
	setups := &metrics.Sample{}
	for i := 0; i < simSetupRepeats; i++ {
		run = nil
		runtime.GC() // the previous build is garbage; do not bill it to this one
		start := time.Now()
		var err error
		if run, err = buildSim(traced); err != nil {
			return nil, err
		}
		setups.AddDuration(time.Since(start))
		fmt.Fprintf(os.Stderr, "bench: set-up %d/%d took %.3f s\n", i+1, simSetupRepeats, time.Since(start).Seconds())
	}
	sim, nw := run.sim, run.nw

	if traced {
		dir := filepath.Join(outDir, wlSim)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	services := make([]*core.LookupService, simServing)
	for i := range services {
		services[i] = core.NewLookupService(nw.Node(transport.Addr(i)), core.ServiceConfig{PerClient: 64})
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, busy0 := cpuClassSeconds()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	bytes0 := run.bytesSent()
	fired0 := sim.Fired()
	wall0 := time.Now()
	if run.traced != nil {
		// The warm-up already ran timed callbacks; start clean.
		run.traced.clock.self = [numClasses]time.Duration{}
		run.traced.chordMsgs, run.traced.walkMsgs, run.traced.relayMsgs = 0, 0, 0
	}

	lat := &metrics.Sample{}
	record := func(key id.ID) func(core.ServiceResult) {
		return func(sr core.ServiceResult) {
			switch {
			case sr.Err != nil:
				res.Failed++
			case sr.Owner.ID != expectedOwner(nw.Ring.OwnerAmong(key).ID):
				res.Failed++
				res.Wrong++
			default:
				lat.Add(float64(sr.Wait+sr.Stats.Latency()) / float64(time.Millisecond))
			}
		}
	}
	// Open-loop arrivals at a mean rate of simRate: a Poisson stream
	// conditioned on its count, i.e. a fixed number of arrivals at uniformly
	// random instants of the window. The stream does not slow down when the
	// system does, and every seed offers the same amount of work, so
	// throughput per host second compares across seeds.
	arrivals := rand.New(rand.NewSource(seed + 101))
	window := time.Duration(seconds) * simWindowPer
	end := sim.Now() + window
	for i := 0; i < seconds*int(simWindowPer/time.Second)*simRate; i++ {
		at := time.Duration(arrivals.Int63n(int64(window)))
		svc := services[arrivals.Intn(len(services))]
		client := fmt.Sprintf("c%02d", arrivals.Intn(simClients))
		key := id.ID(arrivals.Uint64())
		sim.After(at, func() {
			res.Attempted++
			svc.Enqueue(client, key, record(key))
		})
	}
	sim.Run(end)
	sim.Run(end + simDrain)

	wall := time.Since(wall0)
	runtime.ReadMemStats(&ms1)
	gc1, busy1 := cpuClassSeconds()
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	completed := lat.N()
	// A lookup still unanswered after the drain (every query timed out and
	// then some) is a failure too, not a silently shorter sample.
	res.Failed = res.Attempted - completed
	events := float64(sim.Fired() - fired0)
	bytesPerLookup := ratio(float64(run.bytesSent()-bytes0), float64(completed))

	if !traced {
		res.set("setup_s", setups.Median(), setups.N())
		res.set("ops_per_s", float64(completed)/wall.Seconds(), completed)
		// The simulated client-observed latency, in virtual milliseconds:
		// identical on every run of one commit and seed, and a change in it
		// means protocol behaviour changed, not speed.
		res.set("lat_p50_ms", lat.Median(), completed)
		res.setTails(lat)
		res.set("cpu_ms_per_op", ratio(float64(cpu1-cpu0)/float64(time.Millisecond), float64(completed)), completed)
		res.set("wire_bytes_per_op", bytesPerLookup, completed)
		res.set("rss_mb", float64(hwm)/(1<<20), 1)
		res.set("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		res.set("sim_wall_s", wall.Seconds(), 1)
		res.set("sim_events_per_s", events/wall.Seconds(), int(events))
	}
	res.tracedRate = events / wall.Seconds()

	res.set("simnet.events", events, 0)
	// Printed to three decimals: the run's own allocations repeat exactly,
	// but the codec's sync.Pools are emptied at every GC cycle, GC timing is
	// not deterministic, and so a few dozen refills in tens of millions of
	// allocations come and go. Rounding keeps the count a usable exact handle.
	res.set("simnet.allocs_per_event", math.Round(float64(ms1.Mallocs-ms0.Mallocs)/events*1000)/1000, int(events))
	res.set("simnet.bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/events, int(events))
	res.set("simnet.gc_cpu_frac", ratio(gc1-gc0, busy1-busy0), 0)
	res.set("sim.completed", float64(completed), 0)
	res.set("sim.lookup_p50_s", lat.Median()/1000, completed)
	res.set("sim.lookup_p95_s", lat.Percentile(95)/1000, completed)
	res.set("sim.bytes_per_lookup", bytesPerLookup, completed)

	if t := run.traced; t != nil {
		self := t.clock.self
		res.set("chord.handler_s", self[classChordHandler].Seconds(), 0)
		res.set("core.handler_s", self[classCoreHandler].Seconds(), 0)
		res.set("store.handler_s", self[classStoreHandler].Seconds(), 0)
		res.set("proto.callback_s", self[classCallback].Seconds(), 0)
		res.set("proto.timer_s", self[classTimer].Seconds(), 0)
		// What is left is the simulator's own: heap operations, latency
		// draws, delivery bookkeeping — and the decorator's clock reads.
		res.set("simnet.self_s", (wall - t.clock.total()).Seconds(), 0)
		res.set("chord.msgs", float64(t.chordMsgs), 0)
		res.set("core.walk_msgs", float64(t.walkMsgs), 0)
		res.set("core.relay_msgs", float64(t.relayMsgs), 0)
	}
	return res, nil
}
