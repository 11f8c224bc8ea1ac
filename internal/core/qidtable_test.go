package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// len reports how many qids the table holds.
func (t *qidTable[V]) len() int {
	t.retire()
	return len(t.live)
}

// TestQidTable drives one table (ttl 10 s, at most 3 puts) through scripted
// steps on a hand-turned clock.
func TestQidTable(t *testing.T) {
	const s = time.Second
	type step struct {
		at   time.Duration
		op   string // put, set, get, take, len
		qid  uint64
		val  string // put/set: the value; get/take: the value expected, "" for a miss
		want int    // len: the count expected; set: 1 when it must report a hit
	}
	cases := []struct {
		name    string
		steps   []step
		evicted uint64
	}{
		{"puts retire in put order", []step{
			{0, "put", 1, "a", 0}, {2 * s, "put", 2, "b", 0}, {4 * s, "put", 3, "c", 0},
			{9 * s, "len", 0, "", 3},
			{10 * s, "len", 0, "", 2}, {10 * s, "get", 1, "", 0}, {10 * s, "get", 2, "b", 0},
			{12 * s, "len", 0, "", 1}, {14 * s, "len", 0, "", 0},
		}, 0},
		{"get and take miss once the deadline has passed", []step{
			{0, "put", 1, "a", 0}, {0, "put", 2, "b", 0},
			{10*s - 1, "get", 1, "a", 0},
			{10 * s, "get", 1, "", 0}, {10 * s, "take", 2, "", 0},
		}, 0},
		{"take removes, and only once", []step{
			{0, "put", 1, "a", 0}, {s, "take", 1, "a", 0}, {s, "take", 1, "", 0}, {s, "len", 0, "", 0},
		}, 0},
		{"set replaces the value but does not extend its life", []step{
			{0, "put", 1, "a", 0}, {9 * s, "set", 1, "b", 1}, {9 * s, "get", 1, "b", 0},
			{10 * s, "get", 1, "", 0}, {10 * s, "set", 1, "c", 0}, {10 * s, "len", 0, "", 0},
		}, 0},
		{"set of an absent qid stores nothing", []step{
			{0, "set", 7, "x", 0}, {0, "len", 0, "", 0},
		}, 0},
		{"take of a re-put qid returns the later value", []step{
			{0, "put", 1, "a", 0}, {s, "take", 1, "a", 0}, {2 * s, "put", 1, "b", 0},
			{3 * s, "take", 1, "b", 0}, {3 * s, "get", 1, "", 0},
		}, 0},
		// Kept on purpose, not a bug to fix here: a retired put deletes
		// whatever its qid holds at that moment, exactly as the per-put
		// delete-timers this table replaced did, and qids ARE re-put while
		// live (a witness re-sending a RelayForward after a lost receipt).
		// The seeded chaos digest replays through it; a deadline per entry
		// moves that digest. Recorded in ROADMAP item 5's re-pin batch.
		{"QUIRK: an earlier put's deadline retires a later put of the same qid", []step{
			{0, "put", 1, "a", 0}, {5 * s, "put", 1, "b", 0},
			{10*s - 1, "get", 1, "b", 0},
			{10 * s, "get", 1, "", 0}, // b was due at 15 s
			{11 * s, "put", 1, "c", 0},
			{15 * s, "get", 1, "", 0}, // and b's own deadline now retires c
		}, 0},
		{"a full table retires its oldest put first", []step{
			{0, "put", 1, "a", 0}, {s, "put", 2, "b", 0}, {2 * s, "put", 3, "c", 0},
			{3 * s, "put", 4, "d", 0},
			{3 * s, "get", 1, "", 0}, {3 * s, "get", 2, "b", 0}, {3 * s, "len", 0, "", 3},
			{4 * s, "put", 5, "e", 0}, {4 * s, "get", 2, "", 0}, {4 * s, "len", 0, "", 3},
		}, 2},
		{"taken entries still count against the bound until their time is up", []step{
			{0, "put", 1, "a", 0}, {0, "put", 2, "b", 0}, {0, "put", 3, "c", 0},
			{s, "take", 1, "a", 0}, {s, "take", 2, "b", 0},
			{2 * s, "put", 4, "d", 0}, {2 * s, "len", 0, "", 2},
			{10 * s, "len", 0, "", 1}, {10 * s, "put", 5, "e", 0},
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var now time.Duration
			var evicted atomic.Uint64
			tab := newQidTable[string](func() time.Duration { return now }, 10*s, &evicted)
			tab.max = 3
			for i, st := range c.steps {
				now = st.at
				switch st.op {
				case "put":
					tab.put(st.qid, st.val)
				case "set":
					if got := tab.set(st.qid, st.val); got != (st.want == 1) {
						t.Errorf("step %d: set(%d) reported %v", i, st.qid, got)
					}
				case "get", "take":
					get := tab.get
					if st.op == "take" {
						get = tab.take
					}
					if got, ok := get(st.qid); got != st.val || ok != (st.val != "") {
						t.Errorf("step %d at %v: %s(%d) = %q, %v; want %q", i, st.at, st.op, st.qid, got, ok, st.val)
					}
				case "len":
					if got := tab.len(); got != st.want {
						t.Errorf("step %d at %v: len = %d, want %d", i, st.at, got, st.want)
					}
				}
			}
			if got := evicted.Load(); got != c.evicted {
				t.Errorf("evictions = %d, want %d", got, c.evicted)
			}
		})
	}
}

// refQidTable is the plain model a qidTable must agree with: a queue of puts
// that only ever grows at the back, a head that walks it, and a map that is
// never rebuilt.
type refQidTable struct {
	ttl     time.Duration
	max     int
	live    map[uint64]int
	puts    []qidPut
	head    int
	evicted uint64
}

func (r *refQidTable) retire(now time.Duration) {
	for r.head < len(r.puts) && r.puts[r.head].due <= now {
		delete(r.live, r.puts[r.head].qid)
		r.head++
	}
}

func (r *refQidTable) put(now time.Duration, qid uint64, v int) {
	r.retire(now)
	if len(r.puts)-r.head >= r.max {
		delete(r.live, r.puts[r.head].qid)
		r.head++
		r.evicted++
	}
	r.live[qid] = v
	r.puts = append(r.puts, qidPut{qid: qid, due: now + r.ttl})
}

// TestQidTableMatchesReference replays a seeded sequence of puts, gets, takes,
// sets and lens, in bursts and with clock jumps, against a table and the plain
// model above. Every result and the eviction count must agree, and the bound
// is small enough that the table both evicts and rebuilds along the way.
func TestQidTableMatchesReference(t *testing.T) {
	const ttl, bound = time.Second, 24
	var now time.Duration
	var evicted atomic.Uint64
	tab := newQidTable[int](func() time.Duration { return now }, ttl, &evicted)
	tab.max = bound
	ref := &refQidTable{ttl: ttl, max: bound, live: map[uint64]int{}}
	rng := rand.New(rand.NewSource(1))
	rebuilds := 0
	for i := range 200_000 {
		switch d := rng.Intn(100); {
		case d < 2:
			now += ttl + time.Duration(rng.Int63n(int64(ttl))) // a jump past every deadline
		case d < 60:
			now += time.Duration(rng.Int63n(int64(ttl / 20)))
		} // else a burst: no time passes
		qid := uint64(rng.Intn(64))
		retired := tab.retired
		ref.retire(now)
		switch op := rng.Intn(5); op {
		case 0:
			tab.put(qid, i)
			ref.put(now, qid, i)
		case 1, 2:
			want, wantOK := ref.live[qid]
			name, get := "get", tab.get
			if op == 2 {
				name, get = "take", tab.take
				delete(ref.live, qid)
			}
			if got, ok := get(qid); got != want || ok != wantOK {
				t.Fatalf("op %d at %v: %s(%d) = %d, %v; want %d, %v", i, now, name, qid, got, ok, want, wantOK)
			}
		case 3:
			_, want := ref.live[qid]
			if want {
				ref.live[qid] = i
			}
			if got := tab.set(qid, i); got != want {
				t.Fatalf("op %d at %v: set(%d) = %v, want %v", i, now, qid, got, want)
			}
		case 4:
			if got, want := tab.len(), len(ref.live); got != want {
				t.Fatalf("op %d at %v: len = %d, want %d", i, now, got, want)
			}
		}
		if tab.retired < retired {
			rebuilds++
		}
	}
	if got := evicted.Load(); got != ref.evicted || got == 0 {
		t.Errorf("evictions = %d, the model's %d; want equal and nonzero", got, ref.evicted)
	}
	if rebuilds == 0 {
		t.Error("the table never rebuilt: the sequence does not exercise it")
	}
}

// TestQidTableGivesBackRoom fills a table with 2^16 puts, lets all but 256
// of them retire, and requires the heap the table then retains to be less
// than four times what a fresh table holding the same 256 entries retains.
// A map that is only ever deleted from keeps the room of its largest burst.
func TestQidTableGivesBackRoom(t *testing.T) {
	const n, kept, ttl, at = 1 << 16, 256, 10 * time.Second, 4 * time.Second
	// retained puts qids from..n-1, the last kept of them at the time at, and
	// reports the heap the table holds once the others are due: the live heap
	// after a forced GC with the table, less the same without it.
	retained := func(from uint64) int64 {
		now := time.Duration(0)
		var evicted atomic.Uint64
		tab := newQidTable[backRoute](func() time.Duration { return now }, ttl, &evicted)
		for q := from; q < n; q++ {
			if q == n-kept {
				now = at
			}
			tab.put(q, backRoute{prev: 1, delay: time.Second})
		}
		now = ttl + at/2 // the first n-kept puts are due, the last kept are not
		if got := tab.len(); got != kept {
			t.Fatalf("the table holds %d entries, want %d", got, kept)
		}
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(tab)
		runtime.GC()
		runtime.ReadMemStats(&without)
		return int64(with.HeapAlloc) - int64(without.HeapAlloc)
	}
	churned, fresh := retained(0), retained(n-kept)
	t.Logf("%d entries retain %d B after a burst of %d, %d B in a fresh table", kept, churned, n, fresh)
	if churned > 4*max(fresh, 1) {
		t.Errorf("after the burst retired the table retains %d B, want under 4 × %d B (a fresh table holding the same entries)", churned, fresh)
	}
}
