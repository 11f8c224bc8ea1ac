package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/transport"
)

// TestRetainedTablesSurviveOwnerChanges is the immutability rule from the
// receiving side. On simnet a message travels by reference, and evidence keeps
// the tables it receives without copying them; so a table a node retained —
// in its table buffer (lookups and walks), its proof queue (stabilization) or
// as finger provenance (secured finger updates) — must share nothing with the
// node that served it. Every node's fingers, successors and predecessors are
// overwritten after the fact; every retained table must be what it was and
// still verify.
func TestRetainedTablesSurviveOwnerChanges(t *testing.T) {
	const n = 60
	nw := buildTestNet(t, 6, n, nil)
	// A static ring's fingers never change, and provenance is recorded for
	// new fingers only: blank a few so that secured updates refill them.
	for a := 0; a < 6; a++ {
		cn := nw.Node(transport.Addr(a)).Chord
		for slot := cn.Cfg.Fingers - 3; slot < cn.Cfg.Fingers; slot++ {
			cn.SetFinger(slot, chord.NoPeer)
		}
	}
	nw.Sim.Run(3 * time.Minute)

	type kept struct {
		where       string
		table, want chord.RoutingTable
	}
	var all []kept
	count := map[string]int{}
	keep := func(where string, holder int, rt chord.RoutingTable) {
		count[where]++
		all = append(all, kept{fmt.Sprintf("%s of node %d", where, holder), rt, rt.Clone()})
	}
	for a := 0; a < n; a++ {
		e := nw.Node(transport.Addr(a)).evidence
		for i := 0; i < e.tableBuffer.len(); i++ {
			keep("tableBuffer", a, e.tableBuffer.at(i))
		}
		for i := 0; i < e.proofQueue.len(); i++ {
			keep("proofQueue", a, e.proofQueue.at(i))
		}
		for _, rt := range e.fingerProv {
			keep("fingerProv", a, rt)
		}
	}
	for _, where := range []string{"tableBuffer", "proofQueue", "fingerProv"} {
		if count[where] == 0 {
			t.Fatalf("three minutes left no table in any %s; the test would check nothing", where)
		}
	}

	junk := make([]chord.Peer, 8)
	for i := range junk {
		junk[i] = chord.Peer{ID: 0xdead0000 + 1, Addr: transport.Addr(i)}
	}
	for a := 0; a < n; a++ {
		cn := nw.Node(transport.Addr(a)).Chord
		for slot := 0; slot < cn.Cfg.Fingers; slot++ {
			cn.SetFinger(slot, junk[slot%len(junk)]) // written in place
		}
		cn.SetSuccessors(junk)
		cn.SetPredecessors(junk[:3])
	}

	for _, k := range all {
		if !reflect.DeepEqual(k.table, k.want) {
			t.Errorf("%s changed when its owner's state did:\n got %+v\nwant %+v", k.where, k.table, k.want)
		}
		if !nw.Dir.VerifyTable(k.table) {
			t.Errorf("%s no longer verifies", k.where)
		}
	}
}

// TestTableRing pins the ring against the append-and-reslice queue it
// replaced: the same tables, oldest first, at every fill level.
func TestTableRing(t *testing.T) {
	for _, keep := range []int{0, 1, 3, 16} {
		var ring tableRing
		var ref []chord.RoutingTable
		for i := 0; i < 3*keep+2; i++ {
			rt := chord.RoutingTable{Timestamp: time.Duration(i)}
			ring.push(rt, keep)
			if ref = append(ref, rt); len(ref) > keep {
				ref = ref[len(ref)-keep:]
			}
			if ring.len() != len(ref) {
				t.Fatalf("keep %d, push %d: ring holds %d tables, want %d", keep, i, ring.len(), len(ref))
			}
			for j := range ref {
				if got := ring.at(j).Timestamp; got != ref[j].Timestamp {
					t.Fatalf("keep %d, push %d: at(%d) = table %d, want %d", keep, i, j, got, ref[j].Timestamp)
				}
			}
		}
	}
}
