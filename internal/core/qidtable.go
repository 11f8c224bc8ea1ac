package core

import (
	"maps"
	"slices"
	"sync/atomic"
	"time"
)

// qidTableMax caps every per-query table. On tcp-lookup-uniform, the busiest
// workload, a node holds ≈ 2 900 entries (35 lookups/s × 65 forwards / 64 nodes
// × 82 s); 1<<17 is 45× that, 2.8× a node on every path (≤ ¼ of forwards).
const qidTableMax = 1 << 17

type qidPut struct {
	qid uint64
	due time.Duration
}

// qidTable is the one mechanism behind everything a node holds for somebody's
// query — reverse routes, late-reply tombstones, receipts, witness statements.
// A table has one ttl and one size bound, and no timers: every access first
// retires, in put order, the puts whose time is up, and put retires the oldest
// when the table is full. Retiring a put deletes whatever its qid holds THEN,
// even a later put's value, as the seeded digests replay (ROADMAP item 5). A
// qid is live only while one of its puts is queued, so max bounds both. A Go
// map never shrinks, and a swiss table out of room to tombstones doubles, so
// retire rebuilds map and queue at their live size once the puts retired since
// outnumber twice those queued: amortised O(1) per put. Host context only.
type qidTable[V any] struct {
	now     func() time.Duration
	ttl     time.Duration
	max     int
	evicted *atomic.Uint64 // puts retired early because the table was full

	live    map[uint64]V
	puts    []qidPut // in put order, which one ttl makes due order
	retired int      // puts retired since live and puts were allocated
}

func newQidTable[V any](now func() time.Duration, ttl time.Duration, evicted *atomic.Uint64) *qidTable[V] {
	return &qidTable[V]{now: now, ttl: ttl, max: qidTableMax, evicted: evicted, live: make(map[uint64]V)}
}

func (t *qidTable[V]) retireOldest() {
	delete(t.live, t.puts[0].qid)
	t.puts, t.retired = t.puts[1:], t.retired+1
}

// retire retires every put whose time is up.
func (t *qidTable[V]) retire() {
	for now := t.now(); len(t.puts) > 0 && t.puts[0].due <= now; {
		t.retireOldest()
	}
	if t.retired > 2*len(t.puts)+32 { // the 32: a near-empty table rebuilds rarely
		t.live, t.puts, t.retired = maps.Clone(t.live), slices.Clone(t.puts), 0
	}
}

// put stores v under qid for ttl, replacing what qid held.
func (t *qidTable[V]) put(qid uint64, v V) {
	t.retire()
	if len(t.puts) >= t.max {
		t.retireOldest()
		t.evicted.Add(1)
	}
	t.live[qid] = v
	t.puts = append(t.puts, qidPut{qid: qid, due: t.now() + t.ttl})
}

func (t *qidTable[V]) get(qid uint64) (V, bool) {
	t.retire()
	v, ok := t.live[qid]
	return v, ok
}

// take is get that also removes the entry.
func (t *qidTable[V]) take(qid uint64) (V, bool) {
	v, ok := t.get(qid)
	delete(t.live, qid)
	return v, ok
}

// set replaces what qid holds without extending its life, and reports
// whether qid held anything.
func (t *qidTable[V]) set(qid uint64, v V) bool {
	_, ok := t.get(qid)
	if ok {
		t.live[qid] = v
	}
	return ok
}
