package store

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// testNet is a simulated deployment with a Store on every node.
type testNet struct {
	*core.Network
	Sim    *simnet.Simulator
	Stores []*Store
}

// buildStoreNet creates a deployment, attaches stores everywhere, and warms
// the relay pools so anonymous operations have pairs to draw.
func buildStoreNet(t *testing.T, seed int64, n int, mutate func(*core.Config)) *testNet {
	t.Helper()
	sim := simnet.New(seed)
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = n
	cfg.WalkEvery = 5 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n+1)
	nw, err := core.BuildNetwork(net, n, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	tn := &testNet{Network: nw, Sim: sim, Stores: make([]*Store, n)}
	for i, node := range nw.Nodes {
		st := New(node, Config{SyncEvery: 10 * time.Second})
		st.Start()
		tn.Stores[i] = st
	}
	sim.Run(30 * time.Second)
	return tn
}

func (tn *testNet) put(t *testing.T, from transport.Addr, key id.ID, value []byte) PutResult {
	t.Helper()
	var res PutResult
	done := false
	tn.Stores[from].Put(key, value, func(r PutResult) { res = r; done = true })
	tn.Sim.Run(tn.Sim.Now() + 30*time.Second)
	if !done {
		t.Fatalf("put of %s never completed", key)
	}
	return res
}

func (tn *testNet) get(t *testing.T, from transport.Addr, key id.ID) GetResult {
	t.Helper()
	var res GetResult
	done := false
	tn.Stores[from].Get(key, func(r GetResult) { res = r; done = true })
	tn.Sim.Run(tn.Sim.Now() + 30*time.Second)
	if !done {
		t.Fatalf("get of %s never completed", key)
	}
	return res
}

func TestPutGetRoundTrip(t *testing.T) {
	tn := buildStoreNet(t, 1, 40, nil)
	key := id.FromBytes([]byte("round-trip"))
	value := []byte("the stored value")

	res := tn.put(t, 0, key, value)
	if res.Err != nil {
		t.Fatalf("put: %v", res.Err)
	}
	if want := tn.Ring.Owner(key); res.Owner.ID != want.ID {
		t.Errorf("put resolved owner %v, ground truth %v", res.Owner, want)
	}
	if res.Replicas < 2 {
		t.Errorf("put targeted %d replicas, want >= 2", res.Replicas)
	}

	// Read back from a different node.
	got := tn.get(t, 7, key)
	if got.Err != nil || !got.Found {
		t.Fatalf("get: found=%v err=%v", got.Found, got.Err)
	}
	if !bytes.Equal(got.Value, value) {
		t.Errorf("get returned %q, want %q", got.Value, value)
	}

	// The owner and its successors hold copies.
	owner := tn.Ring.Owner(key)
	if !tn.Stores[owner.Addr].Has(key) {
		t.Error("owner does not hold the key")
	}
	copies := 0
	for _, st := range tn.Stores {
		if st.Has(key) {
			copies++
		}
	}
	if copies < int(res.Replicas) {
		t.Errorf("%d nodes hold the key, want >= %d", copies, res.Replicas)
	}
}

func TestOverwriteLastWriterWins(t *testing.T) {
	tn := buildStoreNet(t, 2, 40, nil)
	key := id.FromBytes([]byte("overwrite"))
	if res := tn.put(t, 0, key, []byte("first")); res.Err != nil {
		t.Fatalf("put 1: %v", res.Err)
	}
	if res := tn.put(t, 3, key, []byte("second")); res.Err != nil {
		t.Fatalf("put 2: %v", res.Err)
	}
	got := tn.get(t, 9, key)
	if !got.Found || string(got.Value) != "second" {
		t.Fatalf("get after overwrite: found=%v value=%q", got.Found, got.Value)
	}
}

// TestOwnerDeathFailover is the churn headline: the key's owner dies
// without any handover, the ring heals, and a read still returns the value
// from a surviving replica — then re-replication regrows the lost copy.
func TestOwnerDeathFailover(t *testing.T) {
	tn := buildStoreNet(t, 3, 40, nil)
	key := id.FromBytes([]byte("failover"))
	value := []byte("survives the owner")
	if res := tn.put(t, 0, key, value); res.Err != nil {
		t.Fatalf("put: %v", res.Err)
	}

	owner := tn.Ring.Owner(key)
	if owner.Addr == 0 {
		t.Fatal("test key resolves to the gateway; pick another key")
	}
	tn.Ring.Kill(owner.Addr)

	// Let suspicion and stabilization heal the ring, then read.
	deadline := tn.Sim.Now() + 5*time.Minute
	for {
		tn.Sim.Run(tn.Sim.Now() + 20*time.Second)
		got := tn.get(t, 0, key)
		if got.Found {
			if !bytes.Equal(got.Value, value) {
				t.Fatalf("failover get returned %q, want %q", got.Value, value)
			}
			break
		}
		if tn.Sim.Now() > deadline {
			t.Fatalf("get never succeeded after owner death (last: %+v)", got)
		}
	}

	// The new owner must re-replicate: eventually at least Replicas live
	// nodes hold the key again.
	tn.Sim.Run(tn.Sim.Now() + 2*time.Minute)
	copies := 0
	for addr, st := range tn.Stores {
		if transport.Addr(addr) == owner.Addr {
			continue // the corpse's copy does not count
		}
		if st.Has(key) {
			copies++
		}
	}
	if copies < 3 {
		t.Errorf("after re-replication %d live nodes hold the key, want >= 3", copies)
	}
}

// TestJoinPull covers the joining half of churn re-replication: a fresh
// node admitted online pulls the key range it now owns from its successor.
func TestJoinPull(t *testing.T) {
	tn := buildStoreNet(t, 4, 40, nil)

	// Spread enough keys that any join lands inside some owned range.
	keys := make([]id.ID, 0, 30)
	for i := 0; i < 30; i++ {
		key := id.FromBytes([]byte(fmt.Sprintf("join-key-%d", i)))
		if res := tn.put(t, transport.Addr(i%5), key, []byte(fmt.Sprintf("v%d", i))); res.Err != nil {
			t.Fatalf("put %d: %v", i, res.Err)
		}
		keys = append(keys, key)
	}

	// Kill a node, then rejoin its slot with a fresh identity through the
	// PR 3 online-membership path, attach a store, and pull.
	victim := transport.Addr(17)
	tn.Ring.Kill(victim)
	tn.Sim.Run(tn.Sim.Now() + time.Minute)

	bootstrap := tn.Ring.Owner(id.FromBytes([]byte("bootstrap-pick")))
	cfg := tn.Node(0).Config()
	var joined *core.Node
	tn.Rejoin(victim, bootstrap, cfg, func(node *core.Node, err error) {
		if err != nil {
			t.Errorf("rejoin: %v", err)
			return
		}
		joined = node
	})
	tn.Sim.Run(tn.Sim.Now() + time.Minute)
	if joined == nil {
		t.Fatal("rejoin never completed")
	}

	st := New(joined, Config{SyncEvery: 10 * time.Second})
	st.Start()
	pulled := -1
	st.PullOwnedRange(func(n int, err error) {
		if err != nil {
			t.Errorf("pull: %v", err)
		}
		pulled = n
	})
	tn.Sim.Run(tn.Sim.Now() + 30*time.Second)
	if pulled < 0 {
		t.Fatal("pull never completed")
	}

	// Every key the joiner now owns must be locally present.
	self := joined.Self()
	preds := joined.Chord.Predecessors()
	if len(preds) == 0 {
		t.Fatal("joiner has no predecessor after a minute")
	}
	for _, key := range keys {
		if id.Between(key, preds[0].ID, self.ID) && !st.Has(key) {
			t.Errorf("joiner owns key %s but did not pull it", key)
		}
	}
}

// TestHandlePullExactRange checks the previous owner's side of a pull: the
// response holds exactly the held keys in (From, To], in ascending order,
// for a plain range, one that wraps past zero, and an empty one.
func TestHandlePullExactRange(t *testing.T) {
	const top = ^id.ID(0)
	held := []id.ID{top, 900, 5, top - 7, 400, 0, 100, 101, 1 << 40}
	s := &Store{data: map[id.ID]entry{}}
	for i, k := range held {
		s.data[k] = entry{version: uint64(i + 1), value: []byte{byte(i)}}
	}
	for _, tc := range []struct {
		name     string
		from, to id.ID
		want     []id.ID
	}{
		{"plain", 100, 900, []id.ID{101, 400, 900}},
		{"wrap", 1 << 40, 100, []id.ID{0, 5, 100, top - 7, top}},
		{"empty", 5, 99, nil},
	} {
		resp := s.handlePull(PullReq{From: tc.from, To: tc.to})
		got := make([]id.ID, len(resp.Entries))
		for i, e := range resp.Entries {
			got[i] = e.Key
			if want := s.data[e.Key]; e.Version != want.version || !bytes.Equal(e.Value, want.value) {
				t.Errorf("%s: key %v carries version %d value %v, want %d %v",
					tc.name, e.Key, e.Version, e.Value, want.version, want.value)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: (%v, %v] pulled %v, want %v", tc.name, tc.from, tc.to, got, tc.want)
		}
	}
}

// TestLeaveHandover covers the departing half: a gracefully leaving node
// pushes its entries to its successor before the LeaveReq handshake.
func TestLeaveHandover(t *testing.T) {
	tn := buildStoreNet(t, 5, 40, nil)
	key := id.FromBytes([]byte("handover"))
	value := []byte("handed over")
	if res := tn.put(t, 0, key, value); res.Err != nil {
		t.Fatalf("put: %v", res.Err)
	}

	owner := tn.Ring.Owner(key)
	if owner.Addr == 0 {
		t.Fatal("test key resolves to the gateway; pick another key")
	}
	leaving := tn.Node(owner.Addr)
	succ := leaving.Chord.Successors()[0]

	handed := -1
	tn.Stores[owner.Addr].Handover(func(n int, err error) {
		if err != nil {
			t.Errorf("handover: %v", err)
		}
		handed = n
	})
	tn.Sim.Run(tn.Sim.Now() + 10*time.Second)
	if handed < 1 {
		t.Fatalf("handover moved %d entries, want >= 1", handed)
	}
	if !tn.Stores[succ.Addr].Has(key) {
		t.Fatal("successor does not hold the handed-over key")
	}

	leaveDone := false
	leaving.Leave(func(error) { leaveDone = true })
	tn.Sim.Run(tn.Sim.Now() + 30*time.Second)
	if !leaveDone {
		t.Fatal("leave never completed")
	}
	got := tn.get(t, 0, key)
	if !got.Found || !bytes.Equal(got.Value, value) {
		t.Fatalf("get after graceful leave: found=%v value=%q", got.Found, got.Value)
	}
}

// TestChurnNeverServesStaleCachedOwner pins the lookup-result cache's
// safety property under churn: a node that cached the key's owner keeps
// answering correctly after that owner dies. The TTL is set to an hour so
// only the event-driven invalidation (the neighbor-drop flush hook plus the
// store's failed-fetch/failed-put point invalidation) can explain recovery.
func TestChurnNeverServesStaleCachedOwner(t *testing.T) {
	tn := buildStoreNet(t, 7, 40, func(cfg *core.Config) {
		cfg.LookupCacheSize = 256
		cfg.LookupCacheTTL = time.Hour // expiry must not mask invalidation
	})
	// Pick a key whose owner is not the gateway (node 0 must survive to
	// drive reads after the kill).
	var key id.ID
	for i := 0; ; i++ {
		key = id.FromBytes([]byte(fmt.Sprintf("stale-owner-%d", i)))
		if tn.Ring.Owner(key).Addr != 0 {
			break
		}
	}
	value := []byte("pre-churn value")
	if res := tn.put(t, 0, key, value); res.Err != nil {
		t.Fatalf("put: %v", res.Err)
	}

	owner := tn.Ring.Owner(key)
	// The reader is the owner's first successor: close enough on the ring
	// that the owner sits in its neighbor tables, so the suspicion-driven
	// drop fires its cache-flush hook.
	reader := tn.Node(owner.Addr).Chord.Successors()[0].Addr
	if reader == 0 {
		reader = tn.Node(owner.Addr).Chord.Predecessors()[0].Addr
	}

	// Warm the reader's cache and prove it is actually serving hits.
	for i := 0; i < 2; i++ {
		got := tn.get(t, reader, key)
		if got.Err != nil || !got.Found || !bytes.Equal(got.Value, value) {
			t.Fatalf("pre-churn get %d: found=%v err=%v value=%q", i, got.Found, got.Err, got.Value)
		}
	}
	if tn.Node(reader).Stats().CacheHits.Load() == 0 {
		t.Fatalf("reader served no cache hits after repeat gets (%d misses)", tn.Node(reader).Stats().CacheMisses.Load())
	}

	tn.Ring.Kill(owner.Addr)

	// Every post-churn read that reports Found must carry the true value:
	// the cached (now dead) owner may cost a fetch fallback to the
	// successor-list evidence, but it must never surface wrong data.
	var healed bool
	deadline := tn.Sim.Now() + 5*time.Minute
	for !healed {
		tn.Sim.Run(tn.Sim.Now() + 20*time.Second)
		got := tn.get(t, reader, key)
		if got.Found {
			if !bytes.Equal(got.Value, value) {
				t.Fatalf("stale read after owner death: %q, want %q", got.Value, value)
			}
			healed = true
		}
		if tn.Sim.Now() > deadline {
			t.Fatalf("get never succeeded after owner death (last: %+v)", got)
		}
	}
	if tn.Node(reader).Stats().CacheFlushes.Load() == 0 {
		t.Error("reader never flushed its lookup cache after its neighbor died")
	}

	// Writes must also recover: an overwrite routed through whatever the
	// reader has cached eventually lands on the healed ring (a first
	// attempt hitting the dead owner fails AND invalidates, so a retry
	// re-resolves), and every node then reads the new value.
	newValue := []byte("post-churn value")
	deadline = tn.Sim.Now() + 5*time.Minute
	for {
		if res := tn.put(t, reader, key, newValue); res.Err == nil {
			break
		}
		if tn.Sim.Now() > deadline {
			t.Fatal("overwrite never succeeded after owner death")
		}
	}
	for _, from := range []transport.Addr{reader, 0} {
		got := tn.get(t, from, key)
		if !got.Found || !bytes.Equal(got.Value, newValue) {
			t.Fatalf("get from %d after healed overwrite: found=%v value=%q, want %q",
				from, got.Found, got.Value, newValue)
		}
	}
}

func TestValueSizeBound(t *testing.T) {
	tn := buildStoreNet(t, 6, 12, nil)
	big := make([]byte, MaxValueSize+1)
	done := false
	tn.Stores[0].Put(id.FromBytes([]byte("big")), big, func(r PutResult) {
		done = true
		if r.Err != ErrValueTooLarge {
			t.Errorf("oversized put: err = %v, want ErrValueTooLarge", r.Err)
		}
	})
	if !done {
		t.Fatal("oversized put must fail synchronously")
	}
}

// TestCodecRoundTrips pins the 0x06xx wire formats: every message survives
// an encode/decode cycle, and Size matches the real encoding.
func TestCodecRoundTrips(t *testing.T) {
	entries := []KV{
		{Key: 7, Version: 9, Value: []byte("a")},
		{Key: ^id.ID(0), Version: 1, Value: nil},
	}
	msgs := []transport.Message{
		StoreReq{Key: 42, Value: []byte("payload")},
		StoreResp{OK: true, Replicas: 3},
		FetchReq{Key: 42},
		FetchResp{Found: true, Version: 17, Value: []byte("payload")},
		ReplicateReq{Entries: entries},
		ReplicateResp{OK: true, Stored: 2},
		PullReq{From: 1, To: 99},
		PullResp{Entries: entries},
		ClientPutReq{Seq: 5, Key: 42, Value: []byte("cv")},
		ClientPutResp{Seq: 5, OK: true, Replicas: 3, LatencyMicros: 1234},
		ClientGetReq{Seq: 6, Key: 42},
		ClientGetResp{Seq: 6, Found: true, Version: 17, Value: []byte("cv"), Tried: 2, LatencyMicros: 99},
		ClientPutResp{Seq: 7, Busy: true},
		ClientGetResp{Seq: 8, Busy: true},
	}
	for _, m := range msgs {
		enc, err := transport.Encode(m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if len(enc) != m.Size() {
			t.Errorf("%T: len(Encode) = %d != Size() %d", m, len(enc), m.Size())
		}
		dec, err := transport.Decode(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		re, err := transport.Encode(dec)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", m, err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("%T: round trip not byte-identical", m)
		}
	}
	// A replicate batch whose count field exceeds the bytes is corrupt, not
	// a huge allocation.
	enc, _ := transport.Encode(ReplicateReq{Entries: entries})
	enc[2], enc[3] = 0xFF, 0xFF // entry count
	if _, err := transport.Decode(enc); err == nil {
		t.Error("overstated entry count decoded without error")
	}
}
