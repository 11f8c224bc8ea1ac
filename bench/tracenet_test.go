package main

import (
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
)

func TestSelfClockSubtractsNestedSpans(t *testing.T) {
	var now time.Duration
	c := selfClock{now: func() time.Duration { return now }}

	// A core handler runs 10 units; inside it an RPC completes inline for 4
	// units, and inside that a zero-delay timer fires for 1 unit.
	c.enter(classCoreHandler)
	now += 3
	c.enter(classCallback)
	now += 2
	c.enter(classTimer)
	now += 1
	c.exit()
	now += 1
	c.exit()
	now += 3
	c.exit()

	// Then a chord handler on its own, 5 units.
	now += 100 // simulator time between events belongs to nobody
	c.enter(classChordHandler)
	now += 5
	c.exit()

	want := map[spanClass]time.Duration{
		classCoreHandler:  6, // 10 minus the 4 its callback covered
		classCallback:     3, // 4 minus the 1 its timer covered
		classTimer:        1,
		classChordHandler: 5,
		classStoreHandler: 0,
	}
	for class, d := range want {
		if c.self[class] != d {
			t.Errorf("self[%d] = %v, want %v", class, c.self[class], d)
		}
	}
	if c.total() != 15 {
		t.Errorf("total = %v, want 15 (nested time counted once)", c.total())
	}
	if len(c.stack) != 0 {
		t.Errorf("stack not empty after balanced enter/exit: %v", c.stack)
	}
}

func TestTraceCursor(t *testing.T) {
	span := func(i int) obs.Span { return obs.Span{Start: time.Duration(i)} }
	dump := func(dropped uint64, from, to int) traceDump {
		d := traceDump{Dropped: dropped}
		for i := from; i < to; i++ {
			d.Spans = append(d.Spans, span(i))
		}
		return d
	}
	starts := func(spans []obs.Span) []int {
		var out []int
		for _, s := range spans {
			out = append(out, int(s.Start))
		}
		return out
	}
	equal := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	var c traceCursor
	if got := starts(c.advance(dump(0, 0, 3))); !equal(got, []int{0, 1, 2}) {
		t.Errorf("first poll = %v, want all three spans", got)
	}
	if got := starts(c.advance(dump(0, 0, 5))); !equal(got, []int{3, 4}) {
		t.Errorf("second poll = %v, want only the new tail", got)
	}
	if got := c.advance(dump(0, 0, 5)); len(got) != 0 {
		t.Errorf("idle poll returned %d spans, want none", len(got))
	}
	// The buffer (capacity 5) wrapped: spans 5..11 were recorded, 0..6 were
	// overwritten, so 5 and 6 were lost between polls.
	if got := starts(c.advance(dump(7, 7, 12))); !equal(got, []int{7, 8, 9, 10, 11}) {
		t.Errorf("poll after wrap = %v, want the whole buffer", got)
	}
	if c.lost != 2 {
		t.Errorf("lost = %d, want 2", c.lost)
	}
}
