package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// testOptions are octopusd's flag defaults with the faster walk and
// stabilization periods the multi-process tests pass on the command line.
func testOptions() Options {
	cfg := core.DefaultConfig()
	cfg.RoutingTier = core.TierFinger
	cfg.TierMaintainEvery = time.Second
	cfg.WalkEvery = 300 * time.Millisecond
	cfg.Chord.StabilizeEvery = 500 * time.Millisecond
	cfg.SurveilEvery = 15 * time.Second
	cfg.Chord.FixFingersEvery = 10 * time.Second
	cfg.Chord.RPCTimeout = 2 * time.Second
	cfg.QueryTimeout = 4 * time.Second
	cfg.RelayDelayMax = 50 * time.Millisecond
	return Options{
		Cfg:          cfg,
		LookupWait:   2 * time.Minute,
		WarmPairs:    16,
		WarmMax:      90 * time.Second,
		StatusEach:   5 * time.Second,
		ServeLookups: true,
		ServeWorkers: 8,
		ServeQueue:   64,
		ServePer:     16,
		ServeTO:      60 * time.Second,
		ServeStore:   true,
		StoreSync:    5 * time.Second,
	}
}

// freePorts reserves k distinct kernel-assigned loopback ports. The
// listeners are closed before use, which is racy in principle; in practice
// the kernel does not re-assign an ephemeral port this quickly.
func freePorts(t *testing.T, k int) []string {
	t.Helper()
	eps := make([]string, k)
	for i := range eps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		defer ln.Close()
		eps[i] = ln.Addr().String()
	}
	return eps
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestBootstrapDispatcher checks the routing of bootstrap-channel frames
// without any ring: client requests go to the service or the store when the
// process has one and are dropped silently when it has not, and everything
// else reaches the admission relay.
func TestBootstrapDispatcher(t *testing.T) {
	var relayed []transport.Message
	admission := func(_ string, req transport.Message) (transport.Message, bool) {
		relayed = append(relayed, req)
		return core.RingAdmitResp{}, true
	}
	clientFrames := []transport.Message{
		core.ClientLookupReq{Seq: 1, Key: 42},
		store.ClientPutReq{Seq: 2, Key: 42, Value: []byte("v")},
		store.ClientGetReq{Seq: 3, Key: 42},
	}

	t.Run("no service, no store: client frames are dropped silently", func(t *testing.T) {
		relayed = nil
		dispatch := bootstrapDispatcher(nil, nil, time.Second, admission)
		for _, req := range clientFrames {
			if resp, ok := dispatch("127.0.0.1:5000", req); ok || resp != nil {
				t.Errorf("%T answered with %v", req, resp)
			}
		}
		if len(relayed) != 0 {
			t.Errorf("client frames reached the admission relay: %v", relayed)
		}
	})

	t.Run("other frames reach the admission relay", func(t *testing.T) {
		relayed = nil
		dispatch := bootstrapDispatcher(nil, nil, time.Second, admission)
		for _, req := range []transport.Message{core.RingAdmitReq{ID: 7, Endpoint: "e"}, chord.PingReq{}} {
			if _, ok := dispatch("127.0.0.1:5000", req); !ok {
				t.Errorf("%T was not answered by the relay", req)
			}
		}
		if len(relayed) != 2 {
			t.Fatalf("relay saw %d frames, want 2", len(relayed))
		}
		if m, ok := relayed[0].(core.RingAdmitReq); !ok || m.ID != 7 {
			t.Errorf("relay saw %#v first, want the RingAdmitReq", relayed[0])
		}
	})

	t.Run("lookup quota is per IP, not per connection", func(t *testing.T) {
		// One live node of a 12-slot ring whose other slots point at a
		// closed port: a lookup away from the node's own arc stays in
		// flight until its queries time out, which holds the client's
		// quota for the length of the test.
		dead := freePorts(t, 1)[0]
		endpoints := []string{"self"}
		for len(endpoints) < 13 {
			endpoints = append(endpoints, dead)
		}
		tr, err := nettransport.New(nettransport.Config{Listen: "127.0.0.1:0", Self: "self", Endpoints: endpoints, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		nw, err := core.BuildNetworkLocal(tr, 12, testOptions().Cfg, tr.Local)
		if err != nil {
			t.Fatal(err)
		}
		node := nw.Nodes[0]
		svc := core.NewLookupService(node, core.ServiceConfig{Workers: 4, Queue: 4, PerClient: 1})
		dispatch := bootstrapDispatcher(svc, nil, 500*time.Millisecond, admission)
		far := core.ClientLookupReq{Seq: 1, Key: node.Self().ID + 1<<63}

		first := make(chan transport.Message, 1)
		go func() {
			resp, _ := dispatch("192.0.2.1:40000", far)
			first <- resp
		}()
		waitFor(t, 5*time.Second, "the first lookup to occupy a worker", func() bool { return svc.Stats().Active.Load() == 1 })

		// Same IP, another port: refused at once on the per-client quota.
		resp, ok := dispatch("192.0.2.1:40001", far)
		if r, _ := resp.(core.ClientLookupResp); !ok || !r.Busy {
			t.Fatalf("second connection from the same IP got %#v, want Busy", resp)
		}
		if got := svc.Stats().RejectedClient.Load(); got != 1 {
			t.Fatalf("per-client rejections = %d, want 1", got)
		}
		// Another IP is not charged to that quota.
		dispatch("192.0.2.2:40000", far)
		if st := svc.Stats(); st.RejectedClient.Load() != 1 || st.Submitted.Load() != 3 {
			t.Fatalf("after a request from another IP: %d submitted, %d per-client rejections, want 3 and still 1",
				st.Submitted.Load(), st.RejectedClient.Load())
		}
		<-first
	})
}

// fakeContact serves one canned admission answer on the bootstrap channel of
// a loopback endpoint, standing in for a hostile or buggy contact daemon.
func fakeContact(t *testing.T, answer func(core.RingAdmitReq) core.RingAdmitResp) string {
	t.Helper()
	tr, err := nettransport.New(nettransport.Config{Listen: "127.0.0.1:0", Self: "contact", Endpoints: []string{"contact"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	tr.SetBootstrapHandler(func(_ string, req transport.Message) (transport.Message, bool) {
		m, ok := req.(core.RingAdmitReq)
		if !ok {
			return nil, false
		}
		return answer(m), true
	})
	return tr.Addr().String()
}

// TestJoinRejectsMalformedGrant is the regression test for the joiner
// indexing its endpoint table by whatever slot the contact names: a grant
// whose Self.Addr is NoAddr passed the old upper-bound check and panicked
// with "index out of range [-1]". The grant is outside input and must be
// refused with an error, before any socket is opened.
func TestJoinRejectsMalformedGrant(t *testing.T) {
	listen := freePorts(t, 1)[0]
	want := id.FromBytes([]byte("joiner"))
	good := func(req core.RingAdmitReq) core.RingAdmitResp {
		return core.RingAdmitResp{OK: true, CAAddr: 1, Grant: core.CertIssueResp{
			OK: true, Self: chord.Peer{ID: req.ID, Addr: 2}, Endpoints: []string{"a", "b", req.Endpoint}}}
	}
	cases := []struct {
		name   string
		mangle func(*core.RingAdmitResp)
		errHas string
	}{
		{"slot is NoAddr", func(r *core.RingAdmitResp) { r.Grant.Self.Addr = transport.NoAddr }, "outside its 3-entry endpoint table"},
		{"slot past the table", func(r *core.RingAdmitResp) { r.Grant.Self.Addr = 3 }, "outside its 3-entry endpoint table"},
		{"empty endpoint table", func(r *core.RingAdmitResp) { r.Grant.Endpoints = nil }, "outside its 0-entry endpoint table"},
		{"slot belongs to another endpoint", func(r *core.RingAdmitResp) { r.Grant.Self.Addr = 0 }, "does not place " + listen},
		{"certifies another identifier", func(r *core.RingAdmitResp) { r.Grant.Self.ID++ }, "requested " + want.String()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			contact := fakeContact(t, func(req core.RingAdmitReq) core.RingAdmitResp {
				resp := good(req)
				tc.mangle(&resp)
				return resp
			})
			opts := testOptions()
			opts.Join, opts.Listen, opts.IDName = contact, listen, "joiner"
			err := Run(context.Background(), opts)
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.errHas)
			}
		})
	}
}

// TestInProcessJoinLeave runs the whole lifecycle inside the test process
// over loopback TCP: two static daemons split a 12-node ring (A hosts the
// CA), a joiner is admitted through A, becomes the owner an anonymous
// client lookup through B resolves to, and leaves on cancellation with its
// neighbours acknowledging; its slot lands on the CA's free list and is
// handed to a second joiner admitted through B. Every daemon but A goes
// through Run; A is started by hand so the test can read its CA state. When
// all have returned, nothing they started may be left running.
func TestInProcessJoinLeave(t *testing.T) {
	before := runtime.NumGoroutine()
	defer transporttest.CheckGoroutineLeak(t, before)

	eps := freePorts(t, 5)
	epA, epB, epJ1, epJ2, epMetrics := eps[0], eps[1], eps[2], eps[3], eps[4]
	const n = 12
	rc := RingConfig{Seed: 42, CA: epA}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%2])
	}
	cfgPath := filepath.Join(t.TempDir(), "ring.json")
	raw, _ := json.Marshal(rc)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// run starts one daemon through Run and returns its cancel function and
	// the channel its result arrives on.
	run := func(opts Options) (context.CancelFunc, <-chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- Run(ctx, opts) }()
		t.Cleanup(cancel)
		return cancel, done
	}
	// finish cancels a daemon and requires a clean return.
	finish := func(name string, cancel context.CancelFunc, done <-chan error) {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: Run returned %v, want nil", name, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: Run did not return within a minute of cancellation", name)
		}
	}

	// B first, and A only once B is fully up (the metrics page is the last
	// thing a daemon brings up), so that A's first dial to B succeeds. The
	// CA's announce of a joiner is a one-way send: were B not listening
	// yet when A dials it for the first admission, B would learn the
	// joiner's slot only from the 30 s re-announce.
	optsB := testOptions()
	optsB.Config, optsB.Listen, optsB.MetricsListen, optsB.TraceBuffer = cfgPath, epB, epMetrics, 64
	cancelB, doneB := run(optsB)
	httpc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	waitFor(t, time.Minute, "B to serve /metrics", func() bool {
		resp, err := httpc.Get("http://" + epMetrics + "/metrics")
		if err != nil {
			return false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return strings.Contains(string(body), "octopus_transport_bytes_sent_total")
	})

	optsA := testOptions()
	optsA.Config, optsA.Listen = cfgPath, epA
	a := &daemon{opts: optsA, collector: obs.NewCollector()}
	defer a.stop()
	if err := a.start(context.Background()); err != nil {
		t.Fatalf("start A: %v", err)
	}
	if a.limiter == nil || a.leave != nil || a.truth == nil {
		t.Fatalf("A is a static daemon hosting the CA: limiter=%v leave set=%v truth set=%v", a.limiter, a.leave != nil, a.truth != nil)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() { doneA <- a.serve(ctxA) }()
	defer cancelA()

	const joinerName = "dynamic-member"
	optsJ1 := testOptions()
	optsJ1.Join, optsJ1.Listen, optsJ1.IDName = epA, epJ1, joinerName
	cancelJ1, doneJ1 := run(optsJ1)

	// slotOf finds the slot A's endpoint table binds to an endpoint.
	slotOf := func(ep string) transport.Addr {
		for slot, e := range a.tr.Endpoints() {
			if e == ep && slot > n {
				return transport.Addr(slot)
			}
		}
		return transport.NoAddr
	}
	waitFor(t, time.Minute, "the CA to allocate the joiner a slot", func() bool { return slotOf(epJ1).Valid() })
	slot := slotOf(epJ1)

	// The joiner is routable: an anonymous lookup served by B — a process
	// that learned of it only through the CA's announce — resolves the
	// joiner's own identifier to it.
	cc, err := nettransport.DialClient(epB, 5*time.Second)
	if err != nil {
		t.Fatalf("dial B: %v", err)
	}
	defer cc.Close()
	// awaitOwner polls anonymous lookups through B until they resolve to
	// the named joiner at the given slot. Each poll asks for a fresh key
	// just below the joiner's identifier — its own once it has joined —
	// because B caches results per key, and an answer cached between the
	// joiner's admission and its join would be served for the cache's TTL.
	seq := uint64(0)
	awaitOwner := func(name string, slot transport.Addr) {
		t.Helper()
		want := id.FromBytes([]byte(name))
		waitFor(t, 2*time.Minute, "an anonymous lookup through B to find "+name, func() bool {
			seq++
			resp, err := cc.Call(core.ClientLookupReq{Seq: seq, Key: want - id.ID(seq)}, 90*time.Second)
			if err != nil {
				t.Fatalf("client lookup: %v", err)
			}
			r, _ := resp.(core.ClientLookupResp)
			return r.OK && r.Owner.ID == want && r.Owner.Addr == slot
		})
	}
	awaitOwner(joinerName, slot)

	// Cancellation → graceful leave, acknowledged by both neighbours (Run
	// returns nil only then), and the retired slot is back with the CA.
	finish("joiner 1", cancelJ1, doneJ1)
	waitFor(t, 10*time.Second, "the retired slot to reach the CA's free list", func() bool {
		var free []transport.Addr
		inContext(a.tr, a.caAddr, func() { free = append(free, a.limiter.free...) })
		return len(free) == 1 && free[0] == slot
	})

	// A second joiner, admitted through B (which relays to the CA on A),
	// is given the same slot rather than a new one.
	optsJ2 := testOptions()
	optsJ2.Join, optsJ2.Listen, optsJ2.IDName = epB, epJ2, "second-member"
	cancelJ2, doneJ2 := run(optsJ2)
	waitFor(t, time.Minute, "the second joiner to be bound to the retired slot", func() bool { return slotOf(epJ2) == slot })
	if got := len(a.tr.Endpoints()); got != int(slot)+1 {
		t.Fatalf("A's endpoint table has %d slots, want %d: the retired slot was not reused", got, slot+1)
	}
	inContext(a.tr, a.caAddr, func() {
		if len(a.limiter.free) != 0 {
			t.Errorf("free list = %v after reuse, want empty", a.limiter.free)
		}
	})
	// The rebound slot routes to the new occupant, in a process (B) that
	// saw both announces for it.
	awaitOwner("second-member", slot)

	finish("joiner 2", cancelJ2, doneJ2)
	cc.Close()
	finish("B", cancelB, doneB)
	if _, err := httpc.Get("http://" + epMetrics + "/metrics"); err == nil {
		t.Error("B's metrics listener still answers after Run returned")
	}
	finish("A (serve)", cancelA, doneA)
}

// TestServeWithoutStatusLine: a non-positive -status-every means no status
// line. It used to reach time.NewTicker, which panics on such a period.
func TestServeWithoutStatusLine(t *testing.T) {
	for _, period := range []time.Duration{0, -time.Second} {
		d := &daemon{opts: Options{StatusEach: period}}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := d.serve(ctx)
		cancel()
		if err != nil {
			t.Errorf("serve with -status-every %v returned %v, want nil at cancellation", period, err)
		}
	}
}
