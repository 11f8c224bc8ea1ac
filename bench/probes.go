package main

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/chantransport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Layer probes: fixed-count timed loops over each layer's public functions,
// the price list behind cpu_ms_per_op. They run once per traced invocation,
// in this process, with nothing else going on; counts are sized to keep each
// probe well under two seconds on the reference box.

// probeTable is the payload every probe shares: a representative signed
// routing table — 12 fingers with exponents, 6 successors, a 40-byte
// signature — the message that dominates lookup and walk traffic. It is the
// table of the repository's bench_test.go:benchTable.
func probeTable() chord.GetTableResp {
	rng := rand.New(rand.NewSource(1))
	rt := chord.RoutingTable{
		Owner:     chord.Peer{ID: id.ID(rng.Uint64()), Addr: 1},
		Timestamp: 90 * time.Second,
		Sig:       make([]byte, 40),
	}
	rng.Read(rt.Sig)
	for i := 0; i < 12; i++ {
		rt.Fingers = append(rt.Fingers, chord.Peer{ID: id.ID(rng.Uint64()), Addr: transport.Addr(2 + i)})
		rt.FingerExps = append(rt.FingerExps, uint8(52+i))
	}
	for i := 0; i < 6; i++ {
		rt.Successors = append(rt.Successors, chord.Peer{ID: id.ID(rng.Uint64()), Addr: transport.Addr(20 + i)})
	}
	return chord.GetTableResp{Table: rt}
}

// perOp times n calls of fn and returns the mean cost of one.
func perOp(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// allocsPerOp counts heap allocations per call of fn, process-wide (the
// transport probes allocate on other goroutines too).
func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tcpProbes adds the crypto, codec and transport probes to the result of
// tcp-lookup-uniform, the workload whose CPU they explain.
func tcpProbes(res *wlResult) error {
	var sink transport.Message = probeTable()
	payload, err := transport.Encode(sink)
	if err != nil {
		return err
	}

	if err := cryptoProbes(res, payload); err != nil {
		return err
	}

	// Codec: encode into a reused buffer, borrowed-mode decode, and the
	// counting encoder behind every Size() call.
	var buf []byte
	const codecN = 200000
	res.set("transport.encode_table_ns", float64(perOp(codecN, func() {
		buf, _ = transport.EncodeTo(buf[:0], sink) // cannot fail: Encode above succeeded
	})), codecN)
	decode := func() {
		r := transport.AcquireReader(payload)
		if _, err := transport.DecodeBorrowed(r); err != nil {
			panic(err) // the payload was produced by Encode a few lines up
		}
		r.Release()
	}
	res.set("transport.decode_table_ns", float64(perOp(codecN, decode)), codecN)
	res.set("transport.decode_table_allocs", allocsPerOp(codecN, decode), codecN)
	res.set("transport.size_table_ns", float64(perOp(codecN, func() { _ = sink.Size() })), codecN)

	if err := netProbes(res, sink); err != nil {
		return err
	}
	return chanProbe(res, sink)
}

func cryptoProbes(res *wlResult, payload []byte) error {
	type schemeProbe struct {
		name   string
		scheme xcrypto.Scheme
		n      int
	}
	for _, sp := range []schemeProbe{{"sim", xcrypto.SimScheme{}, 200000}, {"ecdsa", xcrypto.ECDSAScheme{}, 2000}} {
		kp, err := sp.scheme.GenerateKey(crand.Reader)
		if err != nil {
			return err
		}
		sig, err := sp.scheme.Sign(kp, payload)
		if err != nil {
			return err
		}
		res.set("xcrypto."+sp.name+"_sign_us", micros(perOp(sp.n, func() {
			sig, _ = sp.scheme.Sign(kp, payload) // same inputs as the checked call above
		})), sp.n)
		ok := true
		res.set("xcrypto."+sp.name+"_verify_us", micros(perOp(sp.n, func() {
			ok = sp.scheme.Verify(kp.Public, payload, sig) && ok
		})), sp.n)
		if !ok {
			return fmt.Errorf("%s scheme rejected its own signature", sp.name)
		}
	}

	// Certificate verification as the daemon does it today (SimScheme).
	scheme := xcrypto.SimScheme{}
	ca, err := xcrypto.NewCA(scheme, crand.Reader)
	if err != nil {
		return err
	}
	kp, err := scheme.GenerateKey(crand.Reader)
	if err != nil {
		return err
	}
	cert, err := ca.Issue(id.ID(42), 7, kp.Public, time.Hour)
	if err != nil {
		return err
	}
	const certN = 200000
	ok := true
	res.set("xcrypto.cert_verify_us", micros(perOp(certN, func() {
		ok = xcrypto.VerifyCertificate(scheme, ca.PublicKey(), cert) && ok
	})), certN)
	if !ok {
		return fmt.Errorf("certificate failed verification")
	}

	// A forward onion over the four relays of an anonymous path
	// (A, B, Ci, Di), and the first relay's peel.
	keys := make([][]byte, 4)
	for i := range keys {
		if keys[i], err = xcrypto.NewOnionKey(crand.Reader); err != nil {
			return err
		}
	}
	nexts := []int64{2, 3, 4, xcrypto.ExitHop}
	onion, err := xcrypto.Build(crand.Reader, keys, nexts, payload)
	if err != nil {
		return err
	}
	const onionN = 50000
	res.set("xcrypto.onion_build_us", micros(perOp(onionN, func() {
		onion, _ = xcrypto.Build(crand.Reader, keys, nexts, payload) // same inputs as the checked call above
	})), onionN)
	var peelErr error
	res.set("xcrypto.onion_peel_us", micros(perOp(onionN, func() {
		if _, _, err := xcrypto.Peel(keys[0], onion); err != nil {
			peelErr = err
		}
	})), onionN)
	return peelErr
}

// netProbes measures nettransport over loopback between two in-process
// transports (distinct listeners and sockets, as two daemons have): the
// sequential RPC round trip, a pipelined stream that exercises frame
// batching, and the client connection's bootstrap-channel round trip.
func netProbes(res *wlResult, table transport.Message) error {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return err
	}
	eps := []string{lnA.Addr().String(), lnB.Addr().String()}
	a, err := nettransport.New(nettransport.Config{Listener: lnA, Self: eps[0], Endpoints: eps, Seed: 1})
	if err != nil {
		lnA.Close()
		lnB.Close()
		return err
	}
	defer a.Close()
	b, err := nettransport.New(nettransport.Config{Listener: lnB, Self: eps[1], Endpoints: eps, Seed: 1})
	if err != nil {
		lnB.Close()
		return err
	}
	defer b.Close()
	b.Bind(1, func(transport.Addr, transport.Message) (transport.Message, bool) { return table, true })
	a.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })
	b.SetBootstrapHandler(func(string, transport.Message) (transport.Message, bool) { return table, true })

	var req transport.Message = chord.GetTableReq{IncludeSuccessors: true}
	done := make(chan error, 1)
	cb := func(_ transport.Message, err error) { done <- err }
	call := func() { a.Call(0, 1, req, 5*time.Second, cb) }
	var callErr error
	rpc := func() {
		a.After(0, 0, call)
		if err := <-done; err != nil {
			callErr = err
		}
	}
	rpc() // dials the link
	const rpcN = 5000
	rtt := &metrics.Sample{}
	for i := 0; i < rpcN; i++ {
		start := time.Now()
		rpc()
		rtt.Add(micros(time.Since(start)))
	}
	res.set("nettransport.rpc_rtt_us_p50", rtt.Median(), rpcN)
	res.set("nettransport.rpc_allocs", allocsPerOp(rpcN, rpc), rpcN)
	if callErr != nil {
		return fmt.Errorf("nettransport rpc probe: %w", callErr)
	}

	// Pipelined: 64 calls in flight, each completion issuing the next.
	const inFlight, pipeN = 64, 50000
	issued, completed := 0, 0
	finished := make(chan error, 1)
	var issue func()
	issue = func() {
		issued++
		a.Call(0, 1, req, 5*time.Second, func(_ transport.Message, err error) {
			completed++
			switch {
			case err != nil:
				select {
				case finished <- err:
				default:
				}
			case completed == pipeN:
				finished <- nil
			case issued < pipeN:
				issue()
			}
		})
	}
	start := time.Now()
	a.After(0, 0, func() {
		for i := 0; i < inFlight; i++ {
			issue()
		}
	})
	if err := <-finished; err != nil {
		return fmt.Errorf("nettransport pipelined probe: %w", err)
	}
	res.set("nettransport.rpc_pipelined_per_s", pipeN/time.Since(start).Seconds(), pipeN)

	cc, err := nettransport.DialClient(eps[1], 5*time.Second)
	if err != nil {
		return err
	}
	defer cc.Close()
	crtt := &metrics.Sample{}
	for i := 0; i < rpcN; i++ {
		start := time.Now()
		if _, err := cc.Call(req, 5*time.Second); err != nil {
			return fmt.Errorf("nettransport client probe: %w", err)
		}
		crtt.Add(micros(time.Since(start)))
	}
	res.set("nettransport.client_rtt_us_p50", crtt.Median(), rpcN)
	return nil
}

// chanProbe is the same sequential RPC over the in-process channel
// transport: the codec and actor hand-offs without the sockets.
func chanProbe(res *wlResult, table transport.Message) error {
	net := chantransport.New(2, 1)
	defer net.Close()
	net.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) { return table, true })
	net.Bind(1, func(transport.Addr, transport.Message) (transport.Message, bool) { return nil, false })
	var req transport.Message = chord.GetTableReq{IncludeSuccessors: true}
	done := make(chan error, 1)
	cb := func(_ transport.Message, err error) { done <- err }
	call := func() { net.Call(1, 0, req, 5*time.Second, cb) }
	const n = 50000
	rtt := &metrics.Sample{}
	for i := 0; i < n; i++ {
		start := time.Now()
		net.After(1, 0, call)
		if err := <-done; err != nil {
			return fmt.Errorf("chantransport probe: %w", err)
		}
		rtt.Add(micros(time.Since(start)))
	}
	res.set("chantransport.rpc_rtt_us_p50", rtt.Median(), n)
	return nil
}

// simProbes measures the bare simulator — a million no-op timers through the
// event heap — which is the floor under sim-load-1k's simnet.self_s.
func simProbes(res *wlResult) {
	const n = 1_000_000
	sim := simnet.New(1)
	rng := rand.New(rand.NewSource(1))
	noop := func() {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		sim.After(time.Duration(rng.Int63n(int64(time.Minute))), noop)
	}
	sim.RunAll()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	res.set("simnet.bare_events_per_s", n/wall.Seconds(), n)
	res.set("simnet.bare_allocs_per_event", float64(after.Mallocs-before.Mallocs)/n, n)
}
