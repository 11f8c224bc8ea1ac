package core

import (
	"sync/atomic"
	"testing"
	"time"
)

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
