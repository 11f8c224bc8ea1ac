package store

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport"
)

// Storage errors.
var (
	// ErrValueTooLarge means the value exceeds MaxValueSize.
	ErrValueTooLarge = errors.New("store: value exceeds the wire format's size bound")
	// ErrStoreRefused means the owner answered but did not acknowledge the
	// write.
	ErrStoreRefused = errors.New("store: owner refused the write")
	// ErrNoSuccessor means a range pull or handover found no successor to
	// talk to.
	ErrNoSuccessor = errors.New("store: no successor available")
	// ErrBusy is the backpressure signal of the client-serving bridges.
	ErrBusy = errors.New("store: too many client operations in flight")
)

// Config bounds one node's Store. The replication factor itself lives in
// core.Config.StoreReplicas — one Config describes a deployment — and is
// read off the node.
type Config struct {
	// SyncEvery is the period of the re-replication sweep: every owned key
	// is re-offered to the current successor list, so copies lost to
	// unplanned deaths (no handover) are regrown as soon as the ring
	// heals. Zero means 10s.
	SyncEvery time.Duration
}

func (c *Config) fillDefaults() {
	if c.SyncEvery <= 0 {
		c.SyncEvery = 10 * time.Second
	}
}

const (
	// maxInflight bounds concurrently served client operations (the
	// ServeClientPut/Get bridges); excess requests answer Busy.
	maxInflight = 16
	// chunkSize bounds entries per ReplicateReq batch.
	chunkSize = 32
)

// entry is one stored value.
type entry struct {
	version uint64
	value   []byte
}

// Stats is a store's activity counters and key gauge, written in the node's
// serialization context and read with Load from any goroutine.
type Stats struct {
	Puts, PutFailures, Gets, Hits, Misses, ReplicaBatches, ReplicaEntries,
	PulledEntries, HandoffEntries, StoresServed, FetchesServed atomic.Uint64
	Keys atomic.Int64
}

// Store is one node's slice of the replicated key-value subsystem. All
// mutable state lives in the node's serialization context, exactly like the
// protocol state it extends: the wire handlers, Put/Get, the sync timer,
// and the membership hooks all run on the node's actor, so the store adds
// no locking to any hot path. The Serve* bridges and Stats may be called
// from any goroutine.
type Store struct {
	n        *core.Node
	tr       transport.Transport
	cfg      Config
	replicas int

	// Host-context state.
	data     map[id.ID]entry
	inflight int
	stops    []func()

	stats Stats

	// obsPut/obsGet are the Put/Get latency histograms AttachObs
	// registers; nil-safe at the observation sites.
	obsPut *obs.Histogram
	obsGet *obs.Histogram
}

// New attaches a Store to a node. Every ring member that should hold data
// needs one (replicas land wherever the ring places them); a node without a
// Store silently drops storage traffic and its slice of the keyspace is
// served by its neighbors' copies. Call Start from the node's serialization
// context once the node runs.
func New(n *core.Node, cfg Config) *Store {
	cfg.fillDefaults()
	replicas := n.Config().StoreReplicas
	if replicas <= 0 {
		replicas = 3
	}
	s := &Store{
		n:        n,
		tr:       n.Chord.Transport(),
		cfg:      cfg,
		replicas: replicas,
		data:     make(map[id.ID]entry),
	}
	// Chain behind any existing handler so the store composes with other
	// core-layer extensions.
	prev := n.Extra
	n.Extra = func(from transport.Addr, req transport.Message) (transport.Message, bool) {
		if resp, ok := s.handle(req); ok {
			return resp, true
		}
		if prev != nil {
			return prev(from, req)
		}
		return nil, false
	}
	return s
}

// Node returns the node the store rides on.
func (s *Store) Node() *core.Node { return s.n }

// Start launches the periodic re-replication sweep. Host context only.
func (s *Store) Start() {
	s.stops = append(s.stops,
		s.tr.Every(s.n.Self().Addr, s.cfg.SyncEvery, s.sync))
}

// Stop cancels the store's timers (the data survives; a stopped node keeps
// its entries for a later handover).
func (s *Store) Stop() {
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil
}

// Stats returns the store's live counters; read each with Load.
func (s *Store) Stats() *Stats { return &s.stats }

// AttachObs registers the store's counters, key gauge, and Put/Get latency
// histograms with the collector.
func (s *Store) AttachObs(c *obs.Collector) {
	l := s.nodeLabel()
	if s.obsPut == nil {
		s.obsPut = obs.NewHistogram(obs.StorePutLatency, obs.LatencyBuckets, l)
		s.obsGet = obs.NewHistogram(obs.StoreGetLatency, obs.LatencyBuckets, l)
	}
	c.Register(s.obsPut)
	c.Register(s.obsGet)
	c.Register(s)
}

func (s *Store) nodeLabel() obs.Label {
	return obs.L("node", strconv.Itoa(int(s.n.Self().Addr)))
}

// CollectObs implements obs.Source: every Stats counter plus the key
// gauge, labeled by node address.
func (s *Store) CollectObs(snap *obs.Snapshot) {
	st := &s.stats
	l := s.nodeLabel()
	snap.AddCounter(obs.StorePuts, float64(st.Puts.Load()), l)
	snap.AddCounter(obs.StorePutFailures, float64(st.PutFailures.Load()), l)
	snap.AddCounter(obs.StoreGets, float64(st.Gets.Load()), l)
	snap.AddCounter(obs.StoreHits, float64(st.Hits.Load()), l)
	snap.AddCounter(obs.StoreMisses, float64(st.Misses.Load()), l)
	snap.AddCounter(obs.StoreReplicaBatches, float64(st.ReplicaBatches.Load()), l)
	snap.AddCounter(obs.StoreReplicaEntries, float64(st.ReplicaEntries.Load()), l)
	snap.AddCounter(obs.StorePulledEntries, float64(st.PulledEntries.Load()), l)
	snap.AddCounter(obs.StoreHandoffEntries, float64(st.HandoffEntries.Load()), l)
	snap.AddCounter(obs.StoreStoresServed, float64(st.StoresServed.Load()), l)
	snap.AddCounter(obs.StoreFetchesServed, float64(st.FetchesServed.Load()), l)
	snap.AddGauge(obs.StoreKeys, float64(st.Keys.Load()), l)
}

// Len reports the number of locally held entries; safe from any goroutine.
func (s *Store) Len() int { return int(s.stats.Keys.Load()) }

// Has reports whether the store holds a copy of key. Host context only.
func (s *Store) Has(key id.ID) bool {
	_, ok := s.data[key]
	return ok
}

// --- Wire handlers (host context) ---

func (s *Store) handle(req transport.Message) (transport.Message, bool) {
	switch m := req.(type) {
	case StoreReq:
		return s.handleStore(m), true
	case FetchReq:
		return s.handleFetch(m), true
	case ReplicateReq:
		return s.handleReplicate(m), true
	case PullReq:
		return s.handlePull(m), true
	default:
		return nil, false
	}
}

// handleStore is the owner side of a write: stamp a version strictly above
// anything held, store, and fan the entry out to the successor list. The
// response does not wait for the fan-out — replica acknowledgements only
// feed counters, and the periodic sync re-offers the entry anyway.
func (s *Store) handleStore(m StoreReq) StoreResp {
	s.stats.StoresServed.Add(1)
	if len(m.Value) > MaxValueSize {
		return StoreResp{}
	}
	version, _ := s.upsert(m.Key, m.Value, 0)
	targets := s.replicaTargets()
	for _, p := range targets {
		s.replicateTo(p, []KV{{Key: m.Key, Version: version, Value: m.Value}})
	}
	return StoreResp{OK: true, Replicas: uint16(1 + len(targets))}
}

func (s *Store) handleFetch(m FetchReq) FetchResp {
	s.stats.FetchesServed.Add(1)
	e, ok := s.data[m.Key]
	if !ok {
		return FetchResp{}
	}
	return FetchResp{Found: true, Version: e.version, Value: e.value}
}

func (s *Store) handleReplicate(m ReplicateReq) ReplicateResp {
	stored := 0
	for _, e := range m.Entries {
		if len(e.Value) > MaxValueSize || e.Version == 0 {
			continue
		}
		if _, wrote := s.upsert(e.Key, e.Value, e.Version); wrote {
			stored++
		}
	}
	return ReplicateResp{OK: true, Stored: uint16(stored)}
}

// handlePull answers with every held entry in (From, To], ascending by key.
func (s *Store) handlePull(m PullReq) PullResp {
	var out []KV
	for k, e := range s.data {
		if id.Between(k, m.From, m.To) {
			out = append(out, KV{Key: k, Version: e.version, Value: e.value})
		}
	}
	slices.SortFunc(out, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
	return PullResp{Entries: out}
}

// upsert stores value under key when version beats the held copy. A zero
// version means "stamp one": strictly above both the held version and the
// transport clock, so owner-stamped writes always win over their
// predecessors and are totally ordered per owner. It returns the version
// now held for the key and whether the entry was actually written — a
// same-version re-offer (the steady-state sync sweep) is a no-op, and
// counting it as stored would make the replication metrics useless.
func (s *Store) upsert(key id.ID, value []byte, version uint64) (uint64, bool) {
	cur, ok := s.data[key]
	if version == 0 {
		version = uint64(s.tr.Now())
		if version <= cur.version {
			version = cur.version + 1
		}
	} else if ok && version <= cur.version {
		return cur.version, false
	}
	s.data[key] = entry{version: version, value: value}
	if !ok {
		s.stats.Keys.Store(int64(len(s.data)))
	}
	return version, true
}

// sortedKeys returns the held keys in ascending order: map iteration order
// is not deterministic, and every multi-entry sweep (sync, pull, handover)
// must send in a seed-stable order for simulated runs to reproduce.
func (s *Store) sortedKeys() []id.ID {
	return slices.Sorted(maps.Keys(s.data))
}

// replicaTargets returns the first StoreReplicas-1 distinct live-listed
// successors — where this node's copies of the keys it owns belong.
func (s *Store) replicaTargets() []chord.Peer {
	want := s.replicas - 1
	if want <= 0 {
		return nil
	}
	out := make([]chord.Peer, 0, want)
	seen := map[id.ID]bool{s.n.Self().ID: true}
	for _, p := range s.n.Chord.Successors() {
		if len(out) >= want {
			break
		}
		if !p.Valid() || seen[p.ID] {
			continue
		}
		seen[p.ID] = true
		out = append(out, p)
	}
	return out
}

func (s *Store) replicateTo(p chord.Peer, entries []KV) {
	s.stats.ReplicaBatches.Add(1)
	s.tr.Call(s.n.Self().Addr, p.Addr, ReplicateReq{Entries: entries},
		s.n.Config().Chord.RPCTimeout,
		func(resp transport.Message, err error) {
			if r, ok := resp.(ReplicateResp); err == nil && ok {
				s.stats.ReplicaEntries.Add(uint64(r.Stored))
			}
		})
}

// sync is the periodic re-replication sweep: every key this node currently
// owns (per its predecessor view) is re-offered to the current successor
// list. After an owner dies without handover, its first surviving successor
// becomes the owner at the next stabilization round and this sweep regrows
// the lost copies; replication is version-idempotent, so steady-state
// sweeps are cheap no-ops at the receivers. (A delta protocol per target
// would cut the bytes; at the key counts a relay node holds this is not a
// hot path.)
func (s *Store) sync() {
	if len(s.data) == 0 || !s.n.Chord.Running() {
		return
	}
	preds := s.n.Chord.Predecessors()
	if len(preds) == 0 || !preds[0].Valid() {
		return // ownership unknowable until the ring view heals
	}
	targets := s.replicaTargets()
	if len(targets) == 0 {
		return
	}
	self := s.n.Self().ID
	var owned []KV
	for _, key := range s.sortedKeys() {
		if id.Between(key, preds[0].ID, self) {
			e := s.data[key]
			owned = append(owned, KV{Key: key, Version: e.version, Value: e.value})
		}
	}
	for _, p := range targets {
		for at := 0; at < len(owned); at += chunkSize {
			s.replicateTo(p, owned[at:min(at+chunkSize, len(owned))])
		}
	}
}

// PullOwnedRange asks the node's first successor — the previous owner — for
// every entry in the key range this node now owns: the joining half of
// churn re-replication. Call from host context after the join completes
// (the successor list is seeded by the JoinResp, so the target is known
// immediately). cb receives the number of entries pulled.
func (s *Store) PullOwnedRange(cb func(pulled int, err error)) {
	succs := s.n.Chord.Successors()
	if len(succs) == 0 || !succs[0].Valid() {
		cb(0, ErrNoSuccessor)
		return
	}
	self := s.n.Self().ID
	from := self // (self, self] = the whole ring: correct when no predecessor is known yet
	if preds := s.n.Chord.Predecessors(); len(preds) > 0 && preds[0].Valid() {
		from = preds[0].ID
	}
	s.tr.Call(s.n.Self().Addr, succs[0].Addr, PullReq{From: from, To: self},
		s.n.Config().Chord.RPCTimeout,
		func(resp transport.Message, err error) {
			if err != nil {
				cb(0, err)
				return
			}
			r, ok := resp.(PullResp)
			if !ok {
				cb(0, ErrNoSuccessor)
				return
			}
			for _, e := range r.Entries {
				if len(e.Value) <= MaxValueSize && e.Version != 0 {
					s.upsert(e.Key, e.Value, e.Version)
				}
			}
			s.stats.PulledEntries.Add(uint64(len(r.Entries)))
			cb(len(r.Entries), nil)
		})
}

// Handover pushes every locally held entry to the node's first successor:
// the graceful-leave half of churn re-replication, run before the chord
// LeaveReq handshake so the successor serves the departed range without a
// gap. Call from host context; cb fires once, after the last batch is
// acknowledged or times out.
func (s *Store) Handover(cb func(handed int, err error)) {
	s.Stop()
	succs := s.n.Chord.Successors()
	if len(succs) == 0 || !succs[0].Valid() {
		cb(0, ErrNoSuccessor)
		return
	}
	keys := s.sortedKeys()
	if len(keys) == 0 {
		cb(0, nil)
		return
	}
	all := make([]KV, 0, len(keys))
	for _, key := range keys {
		e := s.data[key]
		all = append(all, KV{Key: key, Version: e.version, Value: e.value})
	}
	target := succs[0]
	remaining := (len(all) + chunkSize - 1) / chunkSize
	var firstErr error
	for at := 0; at < len(all); at += chunkSize {
		batch := all[at:min(at+chunkSize, len(all))]
		s.stats.ReplicaBatches.Add(1)
		s.tr.Call(s.n.Self().Addr, target.Addr, ReplicateReq{Entries: batch},
			s.n.Config().Chord.RPCTimeout,
			func(resp transport.Message, err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				if remaining == 0 {
					s.stats.HandoffEntries.Add(uint64(len(all)))
					cb(len(all), firstErr)
				}
			})
	}
}

// --- Initiator-side operations (host context) ---

// PutResult is the outcome of one Put.
type PutResult struct {
	Owner    chord.Peer
	Replicas int
	// Stats is the owner-resolving anonymous lookup's accounting.
	Stats core.LookupStats
	Err   error
}

// GetResult is the outcome of one Get.
type GetResult struct {
	Found   bool
	Value   []byte
	Version uint64
	// Owner is the resolved key owner; Tried counts the replicas contacted.
	Owner chord.Peer
	Tried int
	Stats core.LookupStats
	Err   error
}

// Put stores value under key: resolve the owner with an anonymous lookup,
// then deliver the value over an anonymous path — the ring never links the
// key to this node. The owner replicates to its successor list before the
// periodic sync would. cb is invoked exactly once, from the node's
// serialization context.
func (s *Store) Put(key id.ID, value []byte, cb func(PutResult)) {
	s.stats.Puts.Add(1)
	cb = timedCb(s, s.obsPut, cb)
	if len(value) > MaxValueSize {
		s.stats.PutFailures.Add(1)
		cb(PutResult{Err: ErrValueTooLarge})
		return
	}
	s.n.AnonLookupFull(key, func(owner chord.Peer, _ core.DirectLookupResult,
		stats core.LookupStats, err error) {
		if err != nil {
			s.stats.PutFailures.Add(1)
			cb(PutResult{Stats: stats, Err: err})
			return
		}
		s.n.AnonRPC(owner, StoreReq{Key: key, Value: value},
			func(resp transport.Message, err error) {
				res := PutResult{Owner: owner, Stats: stats, Err: err}
				if err == nil {
					if r, ok := resp.(StoreResp); ok && r.OK {
						res.Replicas = int(r.Replicas)
					} else {
						res.Err = ErrStoreRefused
					}
				}
				if res.Err != nil {
					s.stats.PutFailures.Add(1)
					// The resolved owner did not take the write — if it
					// came from the lookup cache it may be long gone, so
					// the retry must re-resolve.
					s.n.InvalidateLookup(key)
				}
				cb(res)
			})
	})
}

// Get resolves key's owner anonymously, then tries the owner and its
// successors in order — each attempt an anonymous fetch bounded by the
// query timeout — until a replica answers. The candidate set comes from the
// lookup's signed evidence table (whose successor list names the nodes
// right after the owner) merged with this node's own successor view, capped
// at the replication factor. cb is invoked exactly once, from the node's
// serialization context.
func (s *Store) Get(key id.ID, cb func(GetResult)) {
	s.stats.Gets.Add(1)
	cb = timedCb(s, s.obsGet, cb)
	s.n.AnonLookupFull(key, func(owner chord.Peer, res core.DirectLookupResult,
		stats core.LookupStats, err error) {
		if err != nil {
			s.stats.Misses.Add(1)
			cb(GetResult{Stats: stats, Err: err})
			return
		}
		cands := s.readCandidates(owner, res)
		s.tryFetch(key, owner, cands, 0, stats, cb)
	})
}

// timed wraps an operation callback so its completion feeds the given
// latency histogram. With no histogram attached the callback is returned
// unwrapped — the passthrough the seeded experiments rely on.
func timedCb[T any](s *Store, h *obs.Histogram, cb func(T)) func(T) {
	if h == nil {
		return cb
	}
	start := s.tr.Now()
	return func(r T) {
		h.ObserveDuration(s.tr.Now() - start)
		cb(r)
	}
}

// readCandidates assembles the replica candidates for a resolved owner: the
// owner first, then the peers listed immediately after it in the lookup's
// evidence successor list and in this node's own successor view.
func (s *Store) readCandidates(owner chord.Peer, res core.DirectLookupResult) []chord.Peer {
	out := []chord.Peer{owner}
	seen := map[id.ID]bool{owner.ID: true}
	addAfterOwner := func(ps []chord.Peer) {
		at := slices.IndexFunc(ps, func(p chord.Peer) bool { return p.ID == owner.ID })
		if at < 0 {
			return
		}
		for _, p := range ps[at+1:] {
			if len(out) >= s.replicas {
				return
			}
			if !p.Valid() || seen[p.ID] {
				continue
			}
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	if res.HasEvidence {
		addAfterOwner(res.Evidence.Successors)
	}
	addAfterOwner(s.n.Chord.Successors())
	return out
}

// tryFetch walks the candidate list. A candidate that is this node itself
// answers from the local map (it IS a replica); remote candidates are
// fetched anonymously.
func (s *Store) tryFetch(key id.ID, owner chord.Peer, cands []chord.Peer, i int,
	stats core.LookupStats, cb func(GetResult)) {
	if i >= len(cands) {
		s.stats.Misses.Add(1)
		// Every candidate derived from this owner resolution failed; a
		// cached resolution this stale must not shape the next attempt.
		s.n.InvalidateLookup(key)
		cb(GetResult{Owner: owner, Tried: len(cands), Stats: stats})
		return
	}
	cand := cands[i]
	if cand.ID == s.n.Self().ID {
		if e, ok := s.data[key]; ok {
			s.stats.Hits.Add(1)
			cb(GetResult{Found: true, Value: e.value, Version: e.version,
				Owner: owner, Tried: i + 1, Stats: stats})
			return
		}
		s.tryFetch(key, owner, cands, i+1, stats, cb)
		return
	}
	s.n.AnonRPC(cand, FetchReq{Key: key}, func(resp transport.Message, err error) {
		if err == nil {
			if r, ok := resp.(FetchResp); ok && r.Found {
				s.stats.Hits.Add(1)
				cb(GetResult{Found: true, Value: r.Value, Version: r.Version,
					Owner: owner, Tried: i + 1, Stats: stats})
				return
			}
		}
		// Timeout, dead replica, or a copy that has not landed there yet:
		// move down the candidate list.
		s.tryFetch(key, owner, cands, i+1, stats, cb)
	})
}

// --- Client-serving bridges (any goroutine) ---

// ServeClientPut bridges one wire write into the store and blocks — up to
// timeout — for the outcome. Like LookupService.ServeClientLookup it is
// meant for a bootstrap-channel dispatcher, which runs on the client
// connection's read goroutine; the maxInflight gate bounds what one daemon
// accepts across all connections.
func (s *Store) ServeClientPut(m ClientPutReq, timeout time.Duration) ClientPutResp {
	resp := ClientPutResp{Seq: m.Seq}
	if len(m.Value) > MaxValueSize {
		return resp
	}
	start := s.tr.Now()
	res, timedOut := bridge(s, timeout, PutResult{Err: ErrBusy},
		func(done func(PutResult)) { s.Put(m.Key, m.Value, done) })
	resp.LatencyMicros = uint64((s.tr.Now() - start) / time.Microsecond)
	switch {
	case timedOut || res.Err == ErrBusy:
		resp.Busy = true
	case res.Err != nil:
	default:
		resp.OK = true
		resp.Replicas = uint16(res.Replicas)
	}
	return resp
}

// ServeClientGet bridges one wire read into the store; see ServeClientPut.
func (s *Store) ServeClientGet(m ClientGetReq, timeout time.Duration) ClientGetResp {
	resp := ClientGetResp{Seq: m.Seq}
	start := s.tr.Now()
	res, timedOut := bridge(s, timeout, GetResult{Err: ErrBusy},
		func(done func(GetResult)) { s.Get(m.Key, done) })
	resp.LatencyMicros = uint64((s.tr.Now() - start) / time.Microsecond)
	switch {
	case timedOut || res.Err == ErrBusy:
		resp.Busy = true
	case res.Err != nil:
	case res.Found:
		resp.Found = true
		resp.Version = res.Version
		resp.Value = res.Value
	}
	resp.Tried = uint16(res.Tried)
	return resp
}

// bridge runs one client operation in the host context behind the
// maxInflight gate and blocks for its outcome; the bool reports a timeout.
func bridge[T any](s *Store, timeout time.Duration, busy T, op func(done func(T))) (T, bool) {
	res, ok := transport.Await(s.tr, s.n.Self().Addr, timeout, func(done func(T)) {
		if s.inflight >= maxInflight {
			done(busy)
			return
		}
		s.inflight++
		op(func(res T) {
			s.inflight--
			done(res)
		})
	})
	return res, !ok
}
