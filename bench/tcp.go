package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// Load shape shared by the tcp workloads: a closed loop of clientConns
// connections to one gateway, one outstanding request each. A daemon serves
// a connection's requests in order, so a connection is one waiting caller;
// four is half the gateway's eight worker slots, so queue wait should be
// close to zero and any rise means a leaked slot.
const (
	clientConns = 4
	callTimeout = 30 * time.Second

	// ringSeed fixes the ring's identifiers and keys for every run. The
	// workload seed does not reach it: bytes and CPU per operation differ by
	// up to 1.8x from one 64-node topology to the next (measured: seed 1
	// 76 kB/op, seed 4 136 kB/op on tcp-lookup-uniform, each repeating to
	// 3 %), which would bury any code change under the choice of ring.
	ringSeed = 1

	// setupRepeats is how many times a tcp workload's set-up runs; setup_s
	// is the median, which keeps one unlucky relay-pool warm-up from reading
	// as a regression.
	setupRepeats = 3

	// One lookup in coldEvery draws a fresh key, the others one of hotKeys
	// fixed ones: experiments.DefaultLoadConfig's 80 % skew. One store
	// operation in putEvery is a Put. See oneIn for how the shares are held.
	hotKeys   = 16
	coldEvery = 5

	storeKeys     = 64
	storeValueLen = 256
	putEvery      = 5
)

// oneIn draws the rare branch of an op mix: exactly one true in every block
// of n calls, at a random position of the block. An independent coin per
// operation would make the mix itself vary from seed to seed (a 12 s window
// of tcp-lookup-hot holds about 300 misses, so their share would wander by
// 5 % and throughput, which the misses set, with it); this keeps the share
// exact and the order random.
type oneIn struct {
	n, pos, at int
}

func (o *oneIn) next(rng *rand.Rand) bool {
	if o.pos == 0 {
		o.at = rng.Intn(o.n)
	}
	hit := o.pos == o.at
	o.pos = (o.pos + 1) % o.n
	return hit
}

// opKind distinguishes the client operations.
type opKind uint8

const (
	opLookup opKind = iota
	opPut
	opGet
)

// opOutcome classifies one operation; everything but opOK counts in
// fail_frac.
type opOutcome uint8

const (
	opOK     opOutcome = iota
	opBusy             // the daemon answered with backpressure
	opFailed           // the daemon answered "not OK" / "not found"
	opWrong            // the daemon answered, and the answer is wrong
	opError            // the call itself failed (timeout, broken connection)
)

// opRecord is one client operation as the load generator saw it, plus the
// accounting fields the daemon put in its response.
type opRecord struct {
	kind    opKind
	outcome opOutcome
	start   time.Duration // since the window opened
	dur     time.Duration // ClientConn.Call start to return
	// serverLat and serverWait are the response's LatencyMicros and
	// WaitMicros: time inside the lookup/store layer and queued before it.
	serverLat, serverWait time.Duration
	queries, dummies      int
	pairs, rejected       int
	tried                 int
}

// cacheHit reports a lookup answered without touching the ring: a cache hit
// spends no relay pair, not even the head pair a local resolution takes.
func (o opRecord) cacheHit() bool {
	return o.kind == opLookup && o.outcome == opOK && o.pairs == 0
}

// opSource generates one connection's requests and judges the responses.
// Calls alternate strictly: next, then check on its response.
type opSource interface {
	next() transport.Message
	check(resp transport.Message) opRecord
}

// groundTruth replays the ring's deterministic bootstrap on the simulator —
// same seed, same draw order, as cmd/octopusd's own tests do — and returns
// the owner of any key in the initial topology. Nothing ever joins or
// leaves a benchmark ring, so this is the one right answer.
func groundTruth(seed int64, n int) (func(id.ID) id.ID, error) {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, n+1)
	nw, err := core.BuildNetwork(net, n, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("ground-truth build: %w", err)
	}
	return func(k id.ID) id.ID { return expectedOwner(nw.Ring.OwnerAmong(k).ID) }, nil
}

// breakTruth is the self-test hook behind -break-truth: it corrupts what
// the checkers expect, so a run with it set must report wrong answers and
// exit non-zero — proof that the correctness check is live.
var breakTruth bool

func expectedOwner(owner id.ID) id.ID {
	if breakTruth {
		return owner + 1
	}
	return owner
}

// lookupSource draws lookup keys: uniformly random 64-bit identifiers that
// never repeat, or — with hot keys set — all but one draw in coldEvery on the
// fixed popular set.
type lookupSource struct {
	rng   *rand.Rand
	hot   []id.ID
	cold  oneIn
	truth func(id.ID) id.ID
	seq   uint64
	key   id.ID
}

func (s *lookupSource) next() transport.Message {
	s.seq++
	s.key = id.ID(s.rng.Uint64())
	if len(s.hot) > 0 && !s.cold.next(s.rng) {
		s.key = s.hot[s.rng.Intn(len(s.hot))]
	}
	return core.ClientLookupReq{Seq: s.seq, Key: s.key}
}

func (s *lookupSource) check(resp transport.Message) opRecord {
	rec := opRecord{kind: opLookup, outcome: opFailed}
	r, ok := resp.(core.ClientLookupResp)
	if !ok || r.Seq != s.seq {
		rec.outcome = opWrong
		return rec
	}
	rec.serverLat = time.Duration(r.LatencyMicros) * time.Microsecond
	rec.serverWait = time.Duration(r.WaitMicros) * time.Microsecond
	rec.queries, rec.dummies = int(r.Queries), int(r.Dummies)
	rec.pairs, rec.rejected = int(r.PairsUsed), int(r.Rejected)
	switch {
	case r.Busy:
		rec.outcome = opBusy
	case r.OK && r.Owner.ID == s.truth(s.key):
		rec.outcome = opOK
	case r.OK:
		rec.outcome = opWrong
	}
	return rec
}

// storeSource issues Puts and Gets on the keys one connection owns.
type storeSource struct {
	rng      *rand.Rand
	keys     []id.ID
	keyBase  int // index of keys[0] in the workload's key set
	hist     []kvHistory
	versions []uint64
	puts     oneIn
	seq      uint64

	cur    int // index into keys of the request in flight
	curPut []byte
}

// storeValue is the value written by the version-th Put to a key: its
// coordinates, then seeded filler, so any mix-up between keys or versions
// shows as a wrong answer.
func storeValue(keyIdx int, version uint64) []byte {
	v := make([]byte, storeValueLen)
	binary.BigEndian.PutUint64(v, uint64(keyIdx))
	binary.BigEndian.PutUint64(v[8:], version)
	rand.New(rand.NewSource(int64(keyIdx)<<32 | int64(version))).Read(v[16:])
	return v
}

func (s *storeSource) put(k int) transport.Message {
	s.seq++
	s.cur = k
	s.curPut = storeValue(s.keyBase+k, s.versions[k])
	s.versions[k]++
	return store.ClientPutReq{Seq: s.seq, Key: s.keys[k], Value: s.curPut}
}

func (s *storeSource) next() transport.Message {
	k := s.rng.Intn(len(s.keys))
	if s.puts.next(s.rng) {
		return s.put(k)
	}
	s.seq++
	s.cur, s.curPut = k, nil
	return store.ClientGetReq{Seq: s.seq, Key: s.keys[k]}
}

func (s *storeSource) check(resp transport.Message) opRecord {
	h := &s.hist[s.cur]
	if s.curPut != nil {
		rec := opRecord{kind: opPut, outcome: opFailed}
		r, ok := resp.(store.ClientPutResp)
		if !ok || r.Seq != s.seq {
			h.put(s.curPut, false)
			rec.outcome = opWrong
			return rec
		}
		rec.serverLat = time.Duration(r.LatencyMicros) * time.Microsecond
		h.put(s.curPut, r.OK)
		switch {
		case r.Busy:
			rec.outcome = opBusy
		case r.OK:
			rec.outcome = opOK
		}
		return rec
	}
	rec := opRecord{kind: opGet, outcome: opFailed}
	r, ok := resp.(store.ClientGetResp)
	if !ok || r.Seq != s.seq {
		rec.outcome = opWrong
		return rec
	}
	rec.serverLat = time.Duration(r.LatencyMicros) * time.Microsecond
	rec.tried = int(r.Tried)
	value := r.Value
	if breakTruth && len(value) > 0 {
		value = append([]byte{value[0] ^ 1}, value[1:]...)
	}
	switch {
	case r.Busy:
		rec.outcome = opBusy
	case !h.getOK(r.Found, value):
		rec.outcome = opWrong
	case r.Found:
		rec.outcome = opOK
	}
	return rec
}

// failed marks the request in flight as lost (the call errored), so a Put
// that may or may not have landed stays a legal Get answer.
func (s *storeSource) failed() {
	if s.curPut != nil {
		s.hist[s.cur].put(s.curPut, false)
	}
}

// tcpRig is a warmed-up ring with its client connections and per-connection
// request sources: everything set-up produces and the window consumes.
type tcpRig struct {
	ring    *ring
	conns   []*nettransport.ClientConn
	sources []opSource
}

func (rig *tcpRig) close() {
	for _, c := range rig.conns {
		if c != nil {
			c.Close()
		}
	}
	rig.ring.stop()
}

// setupTCP builds the daemon binary, starts a fresh ring, waits until it is
// ready, connects the clients and — for the store workload — preloads the
// keys. Its duration is the tcp workloads' setup_s.
func setupTCP(wl string, seed int64, traced bool) (*tcpRig, error) {
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	r, err := startRing(bin, filepath.Join(outDir, wl), ringSeed, traced)
	if err != nil {
		return nil, err
	}
	rig := &tcpRig{ring: r}
	ok := false
	defer func() {
		if !ok {
			rig.close()
		}
	}()
	truth, err := groundTruth(ringSeed, ringNodes)
	if err != nil {
		return nil, err
	}
	if err := r.waitReady(); err != nil {
		return nil, err
	}

	// One draw stream per purpose, all from the workload seed, so the
	// requests a connection sends do not depend on timing.
	shared := rand.New(rand.NewSource(seed + 404))
	var hot []id.ID
	if wl == wlHot {
		for i := 0; i < hotKeys; i++ {
			hot = append(hot, id.ID(shared.Uint64()))
		}
	}
	var keys []id.ID
	if wl == wlStore {
		for i := 0; i < storeKeys; i++ {
			keys = append(keys, id.ID(shared.Uint64()))
		}
	}
	for c := 0; c < clientConns; c++ {
		cc, err := nettransport.DialClient(r.gateway.ring, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		rig.conns = append(rig.conns, cc)
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		if wl == wlStore {
			per := storeKeys / clientConns
			rig.sources = append(rig.sources, &storeSource{
				rng:      rng,
				keys:     keys[c*per : (c+1)*per],
				keyBase:  c * per,
				hist:     make([]kvHistory, per),
				versions: make([]uint64, per),
				puts:     oneIn{n: putEvery},
			})
		} else {
			rig.sources = append(rig.sources, &lookupSource{rng: rng, hot: hot, cold: oneIn{n: coldEvery}, truth: truth})
		}
	}
	if wl == wlStore {
		if err := rig.preload(); err != nil {
			return nil, err
		}
	}
	ok = true
	return rig, nil
}

// preload writes every store key once, each through the connection that
// owns it, retrying while the cold ring still answers busy.
func (rig *tcpRig) preload() error {
	errs := make(chan error, len(rig.conns))
	for c := range rig.conns {
		go func(cc *nettransport.ClientConn, src *storeSource) {
			deadline := time.Now().Add(readyTimeout)
			for k := range src.keys {
				for {
					resp, err := cc.Call(src.put(k), callTimeout)
					if err != nil {
						errs <- fmt.Errorf("preload put: %w", err)
						return
					}
					if src.check(resp).outcome == opOK {
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("preload put never acknowledged (last response %+v)", resp)
						return
					}
					time.Sleep(100 * time.Millisecond)
				}
			}
			errs <- nil
		}(rig.conns[c], rig.sources[c].(*storeSource))
	}
	var first error
	for range rig.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// window drives the closed loop for d and returns every operation started
// inside it. Operations still in flight when the window closes are waited
// for and kept: dropping them would censor exactly the slow ones.
func (rig *tcpRig) window(d time.Duration) ([]opRecord, error) {
	var (
		mu   sync.Mutex
		all  []opRecord
		werr error
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := range rig.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ops []opRecord
			src := rig.sources[c]
			for time.Now().Before(deadline) {
				req := src.next()
				start := time.Now()
				resp, err := rig.conns[c].Call(req, callTimeout)
				dur := time.Since(start)
				var rec opRecord
				if err != nil {
					// A failed call poisons the connection; count the
					// operation and redial so the loop keeps its shape.
					rec = opRecord{outcome: opError}
					if ss, ok := src.(*storeSource); ok {
						ss.failed()
					}
					rig.conns[c].Close()
					cc, derr := nettransport.DialClient(rig.ring.gateway.ring, 5*time.Second)
					if derr != nil {
						mu.Lock()
						werr = fmt.Errorf("connection %d: call failed (%v) and redial failed: %w", c, err, derr)
						mu.Unlock()
						break
					}
					rig.conns[c] = cc
				} else {
					rec = src.check(resp)
				}
				rec.start, rec.dur = start.Sub(t0), dur
				ops = append(ops, rec)
			}
			mu.Lock()
			all = append(all, ops...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, werr
}

// tcpObservation is everything measured around one window.
type tcpObservation struct {
	window        time.Duration
	ops           []opRecord
	before, after []promSample
	cpu           time.Duration // daemons' CPU across the window
	idleCores     float64       // daemons' CPU per second while settling
	hwm           uint64
	pairsMin      float64
	lookupSpans   []time.Duration // traced run: "lookup" span durations
	relayHopSpans []time.Duration // traced run: relay.forward / relay.exit
	spansLost     uint64
	setups        metrics.Sample // duration of each set-up, in seconds
}

// runTCP executes one tcp workload: set-up, settle, measured window, and the
// scrapes around it.
func runTCP(wl string, seed int64, seconds int, traced bool) (*wlResult, error) {
	// The load generator is one process on one core; its goroutines spend
	// the window parked on socket reads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var obsv tcpObservation
	// Set-up is repeated and its median reported: it is dominated by the
	// relay-pool warm-up, whose length varies with the walks' luck.
	var rig *tcpRig
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		var err error
		if rig, err = setupTCP(wl, seed, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		obsv.setups.AddDuration(time.Since(start))
		fmt.Fprintf(os.Stderr, "bench: set-up %d/%d took %.3f s\n", i+1, setupRepeats, time.Since(start).Seconds())
	}
	defer rig.close()
	r := rig.ring

	// Settle: no client load, so the daemons' CPU here is the background
	// share (stabilisation, pool upkeep, surveillance) of cpu_ms_per_op.
	settle := time.Duration(seconds) * time.Second / 4
	cpu0, err := r.cpu()
	if err != nil {
		return nil, err
	}
	time.Sleep(settle)
	cpu1, err := r.cpu()
	if err != nil {
		return nil, err
	}
	obsv.idleCores = (cpu1 - cpu0).Seconds() / settle.Seconds()

	obsv.window = time.Duration(seconds) * time.Second
	if obsv.before, err = r.scrape(); err != nil {
		return nil, err
	}
	obsv.pairsMin = r.gatewayPairs(obsv.before)
	stopPoll := make(chan struct{})
	pollDone := make(chan error, 1)
	if traced {
		go func() { pollDone <- obsv.pollTraced(r, stopPoll) }()
	}
	cpuStart, err := r.cpu()
	if err != nil {
		return nil, err
	}
	// The end-of-window readings are taken by a timer at the window's end,
	// not after the stragglers return, so they cover exactly the window.
	type endReading struct {
		cpu time.Duration
		scr []promSample
		hwm uint64
		err error
	}
	endc := make(chan endReading, 1)
	endTimer := time.AfterFunc(obsv.window, func() {
		var e endReading
		if e.cpu, e.err = r.cpu(); e.err == nil {
			if e.scr, e.err = r.scrape(); e.err == nil {
				e.hwm, e.err = r.hwm()
			}
		}
		endc <- e
	})
	defer endTimer.Stop()
	ops, werr := rig.window(obsv.window)
	close(stopPoll)
	if traced {
		if err := <-pollDone; err != nil && werr == nil {
			werr = err
		}
	}
	if werr != nil {
		return nil, fmt.Errorf("%w\n%s", werr, r.logTails())
	}
	end := <-endc
	if end.err != nil {
		return nil, fmt.Errorf("end-of-window reading: %w\n%s", end.err, r.logTails())
	}
	obsv.ops, obsv.after, obsv.hwm = ops, end.scr, end.hwm
	obsv.cpu = end.cpu - cpuStart
	if p := r.gatewayPairs(obsv.after); p < obsv.pairsMin {
		obsv.pairsMin = p
	}
	return obsv.result(wl, traced), nil
}

// pollTraced is the traced run's extra observation: the gateway pool depth
// once a second (its minimum shows a starved pool) and every daemon's span
// buffer, drained as a stream so the bounded buffer does not wrap unseen.
func (o *tcpObservation) pollTraced(r *ring, stop <-chan struct{}) error {
	cursors := make([]traceCursor, len(r.daemons))
	drain := func(keep bool) error {
		for i, d := range r.daemons {
			dump, err := r.pollTrace(d)
			if err != nil {
				return err
			}
			for _, sp := range cursors[i].advance(dump) {
				if !keep {
					continue
				}
				switch sp.Name {
				case "lookup":
					o.lookupSpans = append(o.lookupSpans, sp.End-sp.Start)
				case "relay.forward", "relay.exit":
					o.relayHopSpans = append(o.relayHopSpans, sp.End-sp.Start)
				}
			}
			o.spansLost += cursors[i].lost
			cursors[i].lost = 0
		}
		return nil
	}
	// Discard what warm-up and settling recorded.
	if err := drain(false); err != nil {
		return err
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-stop:
			return drain(true)
		case <-tick.C:
			scr, err := r.scrape()
			if err != nil {
				return err
			}
			if p := r.gatewayPairs(scr); p < o.pairsMin {
				o.pairsMin = p
			}
			if n%3 == 0 {
				if err := drain(true); err != nil {
					return err
				}
			}
		}
	}
}

// result turns the observation into the workload's metrics: the end-to-end
// set for an untraced run, the per-layer set for a traced one.
func (o *tcpObservation) result(wl string, traced bool) *wlResult {
	res := newResult(wl)
	windowS := o.window.Seconds()

	var lat, hitRTT, overhead, wait, lookupLat, putLat, getLat, tried metrics.Sample
	var inWindow, busy, completed int
	var queries, dummies, pairs, rejected, lookups, puts, rpcs float64
	for _, op := range o.ops {
		res.Attempted++
		if op.outcome != opOK {
			res.Failed++
			if op.outcome == opWrong {
				res.Wrong++
			}
			if op.outcome == opBusy {
				busy++
			}
			continue
		}
		completed++
		if op.start+op.dur <= o.window {
			inWindow++
		}
		ms := float64(op.dur) / float64(time.Millisecond)
		lat.Add(ms)
		// What the call cost outside the lookup/store layer: framing on
		// both sides, the socket, and the daemon's bootstrap dispatch.
		overhead.Add(float64(op.dur-op.serverLat-op.serverWait) / float64(time.Microsecond))
		switch op.kind {
		case opLookup:
			lookups++
			queries += float64(op.queries)
			dummies += float64(op.dummies)
			pairs += float64(op.pairs)
			rejected += float64(op.rejected)
			wait.Add(float64(op.serverWait) / float64(time.Millisecond))
			if op.cacheHit() {
				hitRTT.Add(float64(op.dur) / float64(time.Microsecond))
			} else {
				lookupLat.Add(float64(op.serverLat) / float64(time.Millisecond))
			}
		case opPut:
			puts++
			rpcs++
			putLat.Add(float64(op.serverLat) / float64(time.Millisecond))
		case opGet:
			getLat.Add(float64(op.serverLat) / float64(time.Millisecond))
			tried.Add(float64(op.tried))
			rpcs += float64(op.tried)
		}
	}
	ops := float64(completed)
	delta := func(name string) float64 {
		d, err := promDelta(o.before, o.after, name)
		if err != nil {
			res.note("%v", err)
		}
		return d
	}

	if !traced {
		res.set("setup_s", o.setups.Median(), o.setups.N())
		res.set("ops_per_s", float64(inWindow)/windowS, inWindow)
		// On -hot the median operation is a 0.1 ms cache hit whose round
		// trip wanders by a third from run to run with the scheduler; it is
		// client.hit_rtt_us_p50 in the traced run, not an end-to-end metric.
		if wl != wlHot {
			res.set("lat_p50_ms", lat.Median(), lat.N())
		}
		res.setTails(&lat)
		res.set("cpu_ms_per_op", ratio(float64(o.cpu)/float64(time.Millisecond), ops), completed)
		res.set("wire_bytes_per_op", ratio(delta("octopus_transport_bytes_sent_total"), ops), completed)
		res.set("rss_mb", float64(o.hwm)/(1<<20), len(o.after))
		res.set("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		return res
	}

	// Throughput of the traced run, kept only to compute the overhead.
	res.tracedRate = float64(inWindow) / windowS

	res.set("client.overhead_us_p50", overhead.Median(), overhead.N())
	if hitRTT.N() > 0 {
		res.set("client.hit_rtt_us_p50", hitRTT.Median(), hitRTT.N())
	}
	if wait.N() > 0 {
		res.set("core.service.wait_ms_p50", wait.Median(), wait.N())
		res.set("core.service.wait_ms_p99", wait.Percentile(99), wait.N())
	}
	res.set("core.service.busy_frac", ratio(float64(busy), float64(res.Attempted)), res.Attempted)
	if lookups > 0 {
		res.set("core.lookup.ms_p50", lookupLat.Median(), lookupLat.N())
		res.set("core.lookup.queries_per_op", queries/lookups, int(lookups))
		res.set("core.lookup.dummies_per_op", dummies/lookups, int(lookups))
		res.set("core.lookup.pairs_per_op", pairs/lookups, int(lookups))
		res.set("core.lookup.rejected_per_op", rejected/lookups, int(lookups))
	}
	spanMS := func(ds []time.Duration) *metrics.Sample {
		s := &metrics.Sample{}
		for _, d := range ds {
			s.Add(float64(d) / float64(time.Millisecond))
		}
		return s
	}
	ls, hs := spanMS(o.lookupSpans), spanMS(o.relayHopSpans)
	res.set("core.lookup.span_ms_p50", ls.Median(), ls.N())
	res.set("core.relay.hop_ms_p50", hs.Median(), hs.N())
	res.set("core.relay.hop_ms_p99", hs.Percentile(99), hs.N())
	if o.spansLost > 0 {
		res.note("%d spans were overwritten in the daemons' trace buffers before a poll read them", o.spansLost)
	}
	res.set("core.relay.forwards_per_op", ratio(delta("octopus_relay_forwards_total"), ops), completed)

	walks := delta("octopus_walks_started_total")
	res.set("core.walk.started_per_op", ratio(walks, ops), completed)
	res.set("core.walk.failed_frac", ratio(delta("octopus_walks_failed_total"), walks), int(walks))
	res.set("core.pool.refill_walks_per_op", ratio(delta("octopus_pool_refill_walks_total"), ops), completed)
	res.set("core.pool.discarded_per_op", ratio(delta("octopus_pool_pairs_discarded_total"), ops), completed)
	misses := delta("octopus_lookup_cache_misses_total")
	hits := delta("octopus_lookup_cache_hits_total")
	// Every anonymous query — real, dummy or store RPC — rides its own pair
	// (the daemon's query counter covers all three), and every lookup that
	// missed the cache and every store RPC took a head pair besides.
	pairsUsed := delta("octopus_lookup_queries_total") + misses + rpcs
	res.set("core.pool.fallback_frac", ratio(delta("octopus_pool_fallback_pairs_total"), pairsUsed), int(pairsUsed))
	res.set("core.pool.pairs_min", o.pairsMin, 0)
	res.set("core.cache.hit_frac", ratio(hits, hits+misses), int(hits+misses))
	res.set("core.cache.flushes", delta("octopus_lookup_cache_flushes_total"), 0)
	res.set("core.surveil.checks_per_s", delta("octopus_surveillance_checks_total")/windowS, 0)
	res.set("daemon.idle_cpu_cores", o.idleCores, 0)

	if wl == wlStore {
		res.set("store.put_ms_p50", putLat.Median(), putLat.N())
		res.set("store.get_ms_p50", getLat.Median(), getLat.N())
		res.set("store.get_tried_mean", tried.Mean(), tried.N())
		res.set("store.replica_entries_per_put", ratio(delta("octopus_store_replica_entries_total"), puts), int(puts))
		gets := delta("octopus_store_hits_total") + delta("octopus_store_misses_total")
		res.set("store.hit_frac", ratio(delta("octopus_store_hits_total"), gets), int(gets))
	}

	msgs := delta("octopus_transport_msgs_sent_total")
	res.set("nettransport.msgs_per_op", ratio(msgs, ops), completed)
	res.set("nettransport.bytes_per_msg", ratio(delta("octopus_transport_bytes_sent_total"), msgs), int(msgs))
	res.set("nettransport.dials", delta("octopus_transport_dials_total"), 0)
	res.set("nettransport.send_drops", delta("octopus_transport_send_drops_total"), 0)
	res.set("transport.codec_errors", delta("octopus_transport_codec_errors_total"), 0)
	return res
}
