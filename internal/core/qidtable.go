package core

import (
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
)

// qidTableMax caps every per-query table. On tcp-lookup-uniform, the busiest
// workload, a node holds ≈ 2 000 receipts (35 lookups/s × 45 relayed forwards
// / 64 nodes × 82 s; the 19 of a lookup's 64 forwards that an initiator sends
// leave none); 1<<17 is 65× that, 2.7× a node on every path (one receipt per
// path, ≈ 17 paths per lookup).
const qidTableMax = 1 << 17

type qidPut struct {
	qid uint64
	due time.Duration
}

// qidTable is the one mechanism behind everything a node holds for somebody's
// query — reverse routes, late-reply tombstones, receipts, witness statements.
// A table has one ttl and one size bound, and no timers: every access first
// retires, in put order, the puts whose time is up, and put evicts fairly
// (evict) when the table is full. Retiring a put deletes whatever its qid
// holds THEN, even a later put's value, as the seeded digests replay (ROADMAP
// items 23 and 2 own the per-entry deadline). A qid is live only while one of
// its puts is queued, so max bounds both. A Go map never shrinks, and a swiss
// table out of room to tombstones doubles, so retire rebuilds map and queue at
// their live size once the puts retired since outnumber twice those queued:
// amortised O(1) per put. Host context only.
type qidTable[V any] struct {
	now     func() time.Duration
	ttl     time.Duration
	max     int
	evicted *atomic.Uint64 // puts retired early because the table was full
	// sender names the peer whose message created an entry: eviction's
	// fairness is per sender, derived from what the table already holds.
	sender func(V) transport.Addr
	// onRebuild, if set, runs after retire has rebuilt live and puts, for a
	// table whose values point into storage of their own (receiptTable).
	onRebuild func()

	live    map[uint64]V
	puts    []qidPut // in put order, which one ttl makes due order
	retired int      // puts retired since live and puts were allocated
}

func newQidTable[V any](now func() time.Duration, ttl time.Duration, evicted *atomic.Uint64, sender func(V) transport.Addr) *qidTable[V] {
	return &qidTable[V]{now: now, ttl: ttl, max: qidTableMax, evicted: evicted, sender: sender, live: make(map[uint64]V)}
}

// retire retires every put whose time is up.
func (t *qidTable[V]) retire() {
	for now := t.now(); len(t.puts) > 0 && t.puts[0].due <= now; {
		delete(t.live, t.puts[0].qid)
		t.puts, t.retired = t.puts[1:], t.retired+1
	}
	if t.retired > 2*len(t.puts)+32 { // the 32: a near-empty table rebuilds rarely
		t.live, t.puts, t.retired = maps.Clone(t.live), slices.Clone(t.puts), 0
		if t.onRebuild != nil {
			t.onRebuild()
		}
	}
}

// evict makes room in a full table, fairly. A put belongs to the sender of
// what its qid holds; one whose qid holds nothing (taken, or retired by an
// earlier put of the same qid) is nobody's, and goes first. Then the senders
// holding the most are cut, oldest puts first, to the highest common level
// that leaves keep = max − max/8 puts — as if the oldest put of the sender
// holding the most were retired until keep remain. A sender holding less than
// its share, keep ÷ (senders holding puts), is under that level and loses
// nothing. Freeing an eighth makes the O(max) pass amortised O(1) per put;
// freeing one put per pass would make every put of a flood pay a pass.
func (t *qidTable[V]) evict() {
	keep := t.max - max(t.max/8, 1)
	held := map[transport.Addr]int{}
	owned := 0
	for _, p := range t.puts {
		if v, ok := t.live[p.qid]; ok {
			held[t.sender(v)]++
			owned++
		}
	}
	freed := func(level int) (n int) {
		for _, c := range held {
			n += max(c-level, 0)
		}
		return n
	}
	level := sort.Search(t.max, func(l int) bool { return freed(l) < owned-keep }) - 1

	kept := t.puts[:0]
	for _, p := range t.puts {
		if v, ok := t.live[p.qid]; ok {
			s := t.sender(v)
			if held[s] <= level {
				kept = append(kept, p)
				continue
			}
			held[s]--
			delete(t.live, p.qid)
		}
		t.evicted.Add(1)
		t.retired++
	}
	t.puts = kept
}

// put stores v under qid for ttl, replacing what qid held.
func (t *qidTable[V]) put(qid uint64, v V) {
	t.retire()
	if len(t.puts) >= t.max {
		t.evict()
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
