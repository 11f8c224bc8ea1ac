package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestHeldReceiptsRoundTripAndStaySmall adds 100 000 signed receipts through
// addReceipt, forces the rebuild that rewrites the signature arena, and
// requires each receipt back byte for byte. A held receipt must cost at most
// 120 B of live heap — its map slot, queue slot and signature — where a held
// wire Receipt and its separately allocated signature cost 147 B on this same
// sequence (qidTable[Receipt], measured before the record). Signatures
// of other schemes' lengths must round-trip through the arena too.
func TestHeldReceiptsRoundTripAndStaySmall(t *testing.T) {
	const n, perReceipt = 100_000, 120
	if size := unsafe.Sizeof(heldReceipt{}); size != 16 {
		t.Fatalf("a held receipt is %d B, want 16", size)
	}
	nw := buildTestNet(t, 5, 8, nil)
	holder := nw.Node(0)
	sent := make([]Receipt, n)
	for i := range sent {
		sent[i] = signedReceipt(nw.Node(transport.Addr(1+i%7)), uint64(i+1)<<16)
	}
	var evicted atomic.Uint64
	now := func() time.Duration { return 0 }
	e := &evidence{n: holder,
		receipts:   newReceiptTable(newQidTable(now, time.Minute, &evicted, func(r heldReceipt) transport.Addr { return r.addr })),
		statements: holder.evidence.statements,
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range sent {
		e.addReceipt(r)
	}
	e.receipts.retired = 1 << 30 // as if that many puts had retired: the next access rebuilds
	e.receipts.retire()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d held receipts take %d B of live heap each", n, per)
	if per > perReceipt {
		t.Errorf("a held receipt takes %d B of live heap, want at most %d", per, perReceipt)
	}

	for i, r := range sent {
		if got, ok := e.receipts.receipt(r.QID); !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("receipt %d: held %+v, %v; want %+v", i, got, ok, r)
		}
	}
	for _, r := range sent[:3] {
		if got := e.answer(ProofReq{QID: r.QID}).Receipts; len(got) != 1 || !reflect.DeepEqual(got[0], r) {
			t.Errorf("answer for qid %d gave receipts %+v, want %+v", r.QID, got, r)
		}
	}

	issuer := nw.Node(1).Self()
	for _, size := range []int{1, 64, 72, 127, 128, 300} {
		sig := make([]byte, size)
		for i := range sig {
			sig[i] = byte(size + i)
		}
		qid := uint64(1<<40 + size)
		e.receipts.add(qid, issuer, sig)
		e.receipts.retired = 1 << 30
		want := Receipt{QID: qid, Issuer: issuer, Sig: sig}
		if got, ok := e.receipts.receipt(qid); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("a %d-byte signature came back as %+v, %v", size, got, ok)
		}
	}
}
