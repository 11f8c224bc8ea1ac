package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Property tests for the Octopus-layer codec: round-trips, the
// Size() == len(Encode) invariant, and onion-nesting fidelity.

func randPeerC(rng *rand.Rand) chord.Peer {
	if rng.Intn(8) == 0 {
		return chord.NoPeer
	}
	return chord.Peer{ID: id.ID(rng.Uint64()), Addr: transport.Addr(rng.Int31n(1 << 20))}
}

func randPeersC(rng *rand.Rand, maxLen int) []chord.Peer {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []chord.Peer{}
	}
	out := make([]chord.Peer, 1+rng.Intn(maxLen))
	for i := range out {
		out[i] = randPeerC(rng)
	}
	return out
}

func randTableC(rng *rand.Rand) chord.RoutingTable {
	rt := chord.RoutingTable{
		Owner:        randPeerC(rng),
		Timestamp:    time.Duration(rng.Int63()),
		Fingers:      randPeersC(rng, 16),
		Successors:   randPeersC(rng, 6),
		Predecessors: randPeersC(rng, 6),
	}
	if rng.Intn(2) == 0 {
		rt.Sig = make([]byte, 40)
		rng.Read(rt.Sig)
	}
	if rng.Intn(2) == 0 {
		rt.FingerExps = make([]uint8, len(rt.Fingers))
		for i := range rt.FingerExps {
			rt.FingerExps[i] = uint8(rng.Intn(64))
		}
	}
	return rt
}

func randTablesC(rng *rand.Rand, maxLen int) []chord.RoutingTable {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := make([]chord.RoutingTable, 1+rng.Intn(maxLen))
	for i := range out {
		out[i] = randTableC(rng)
	}
	return out
}

func randReceipt(rng *rand.Rand) Receipt {
	rc := Receipt{QID: rng.Uint64(), Issuer: randPeerC(rng)}
	if rng.Intn(4) != 0 {
		rc.Sig = make([]byte, 40)
		rng.Read(rc.Sig)
	}
	return rc
}

func randWitnessResp(rng *rand.Rand) WitnessResp {
	st := WitnessResp{QID: rng.Uint64(), Delivered: rng.Intn(2) == 0, Witness: randPeerC(rng)}
	if rng.Intn(4) != 0 {
		st.Statement = make([]byte, 41)
		rng.Read(st.Statement)
	}
	return st
}

// randForward builds an onion of the given depth, innermost layer first,
// mirroring how chainQuery wraps real queries.
func randForward(rng *rand.Rand, depth int) RelayForward {
	qid := rng.Uint64()
	inner := RelayForward{QID: qid, Depth: 1, Next: transport.NoAddr}
	if rng.Intn(2) == 0 {
		inner.Exit = &ExitAction{
			Target: transport.Addr(rng.Int31n(1 << 20)),
			Req:    chord.GetTableReq{IncludeSuccessors: true},
		}
	} else {
		inner.Local = WalkSeedReq{WalkID: rng.Uint64(), Seed: rng.Int63(), Hops: rng.Intn(8)}
	}
	for d := 2; d <= depth; d++ {
		wrapped := inner
		inner = RelayForward{
			QID:   qid,
			Next:  transport.Addr(rng.Int31n(1 << 20)),
			Inner: &wrapped,
			Depth: d,
		}
		if rng.Intn(3) == 0 {
			inner.Delay = time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
		}
	}
	return inner
}

func randCoreMessage(rng *rand.Rand, i int) transport.Message {
	switch i % 14 {
	case 0:
		return randForward(rng, 1+rng.Intn(5))
	case 1:
		m := RelayReply{QID: rng.Uint64(), Failed: rng.Intn(4) == 0, Depth: 1 + rng.Intn(4)}
		if !m.Failed {
			m.Resp = chord.GetTableResp{Table: randTableC(rng)}
		}
		return m
	case 2:
		return WalkSeedReq{WalkID: rng.Uint64(), Seed: rng.Int63(), Hops: rng.Intn(10)}
	case 3:
		return WalkSeedResp{WalkID: rng.Uint64(), OK: rng.Intn(2) == 0, Tables: randTablesC(rng, 4)}
	case 4:
		return randReceipt(rng)
	case 5:
		m := WitnessReq{QID: rng.Uint64(), Deliver: transport.Addr(rng.Int31n(1 << 20))}
		if rng.Intn(4) != 0 {
			fwd := randForward(rng, 1+rng.Intn(3))
			m.Payload = &fwd
		}
		return m
	case 6:
		return randWitnessResp(rng)
	case 7:
		return ReportMsg{
			Kind:           ReportKind(1 + rng.Intn(4)),
			Accused:        randPeerC(rng),
			Missing:        randPeerC(rng),
			IdealID:        id.ID(rng.Uint64()),
			ClaimedFinger:  randPeerC(rng),
			Evidence:       randTablesC(rng, 3),
			Relays:         randPeersC(rng, 4),
			QID:            rng.Uint64(),
			HasHeadReceipt: rng.Intn(2) == 0,
		}
	case 8:
		return ProofReq{Missing: randPeerC(rng), QID: rng.Uint64(), FingerClaim: randPeerC(rng)}
	case 9:
		m := ProofResp{Own: randTableC(rng), Proofs: randTablesC(rng, 3)}
		if rng.Intn(2) == 0 {
			m.HasProvenance = true
			m.Provenance = randTableC(rng)
		}
		for k := rng.Intn(3); k > 0; k-- {
			m.Receipts = append(m.Receipts, randReceipt(rng))
		}
		for k := rng.Intn(3); k > 0; k-- {
			m.Statements = append(m.Statements, randWitnessResp(rng))
		}
		return m
	case 11:
		m := TierEventNotify{TTL: uint8(rng.Intn(64)), Joins: randPeersC(rng, 6)}
		for k := rng.Intn(4); k > 0; k-- {
			m.Leaves = append(m.Leaves, id.ID(rng.Uint64()))
		}
		return m
	case 12:
		return TierSyncReq{From: id.ID(rng.Uint64()), Max: uint16(rng.Intn(1 << 16))}
	case 13:
		return TierSyncResp{More: rng.Intn(2) == 0, Peers: randPeersC(rng, 8)}
	default:
		return ReportAck{}
	}
}

func roundTripCore(t *testing.T, m transport.Message) {
	t.Helper()
	enc, err := transport.Encode(m)
	if err != nil {
		t.Fatalf("Encode(%T): %v", m, err)
	}
	if len(enc) != m.Size() {
		t.Fatalf("%T: Size() = %d but len(Encode) = %d", m, m.Size(), len(enc))
	}
	dec, err := transport.Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	if !reflect.DeepEqual(dec, m) {
		t.Fatalf("%T round-trip mismatch:\n got %#v\nwant %#v", m, dec, m)
	}
}

func TestCoreMessagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 560; i++ {
		roundTripCore(t, randCoreMessage(rng, i))
	}
}

// TestClientMessagesRoundTrip covers the 0x05xx client-serving registry.
func TestClientMessagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		roundTripCore(t, ClientLookupReq{Seq: rng.Uint64(), Key: id.ID(rng.Uint64())})
		roundTripCore(t, ClientLookupResp{
			Seq:           rng.Uint64(),
			OK:            rng.Intn(2) == 0,
			Busy:          rng.Intn(2) == 0,
			Owner:         randPeerC(rng),
			Queries:       uint16(rng.Intn(1 << 16)),
			Dummies:       uint16(rng.Intn(1 << 16)),
			PairsUsed:     uint16(rng.Intn(1 << 16)),
			Rejected:      uint16(rng.Intn(1 << 16)),
			LatencyMicros: rng.Uint64(),
			WaitMicros:    rng.Uint64(),
		})
	}
}

// randCertC builds a random certificate for the membership messages.
func randCertC(rng *rand.Rand) xcrypto.Certificate {
	c := xcrypto.Certificate{
		Node:   id.ID(rng.Uint64()),
		Addr:   rng.Int63n(1 << 30),
		Expiry: time.Duration(rng.Int63()),
	}
	if rng.Intn(4) != 0 {
		c.Key = make(xcrypto.PublicKey, 16+rng.Intn(48))
		rng.Read(c.Key)
	}
	if rng.Intn(4) != 0 {
		c.Sig = make([]byte, 40+rng.Intn(24))
		rng.Read(c.Sig)
	}
	return c
}

func randKeyC(rng *rand.Rand) xcrypto.PublicKey {
	if rng.Intn(4) == 0 {
		return nil
	}
	k := make(xcrypto.PublicKey, 16+rng.Intn(48))
	rng.Read(k)
	return k
}

// randMembershipCoreMessage draws one random instance of every 0x031x
// admission message in rotation.
func randMembershipCoreMessage(rng *rand.Rand, i int) transport.Message {
	randRoster := func() []RosterEntry {
		n := rng.Intn(5)
		if n == 0 {
			return nil
		}
		out := make([]RosterEntry, n)
		for j := range out {
			out[j] = RosterEntry{ID: id.ID(rng.Uint64()), Key: randKeyC(rng)}
		}
		return out
	}
	randEndpoints := func() []string {
		n := rng.Intn(5)
		if n == 0 {
			return nil
		}
		out := make([]string, n)
		for j := range out {
			out[j] = "127.0.0.1:9100"
		}
		return out
	}
	randSeqs := func() []uint64 {
		n := rng.Intn(5)
		if n == 0 {
			return nil
		}
		out := make([]uint64, n)
		for j := range out {
			out[j] = rng.Uint64()
		}
		return out
	}
	switch i % 8 {
	case 5:
		m := CertRetireReq{Who: randPeerC(rng)}
		if rng.Intn(4) != 0 {
			m.Sig = make([]byte, 40+rng.Intn(24))
			rng.Read(m.Sig)
		}
		return m
	case 6:
		return CertRetireResp{OK: rng.Intn(2) == 0}
	case 7:
		m := RevocationAnnounce{Node: id.ID(rng.Uint64())}
		if rng.Intn(4) != 0 {
			m.Sig = make([]byte, 40+rng.Intn(24))
			rng.Read(m.Sig)
		}
		return m
	case 0:
		return CertIssueReq{
			ID:         id.ID(rng.Uint64()),
			Addr:       transport.Addr(rng.Int31n(1<<20) - 1),
			Key:        randKeyC(rng),
			Endpoint:   "10.0.0.7:9101",
			WantRoster: rng.Intn(2) == 0,
		}
	case 1:
		return CertIssueResp{
			OK:        rng.Intn(2) == 0,
			Self:      randPeerC(rng),
			Cert:      randCertC(rng),
			CAKey:     randKeyC(rng),
			Roster:    randRoster(),
			Endpoints: randEndpoints(),
			SlotSeqs:  randSeqs(),
		}
	case 2:
		m := EndpointAnnounce{Who: randPeerC(rng), Endpoint: "10.0.0.7:9101", Cert: randCertC(rng), Seq: rng.Uint64()}
		if rng.Intn(4) != 0 {
			m.Sig = make([]byte, 40+rng.Intn(24))
			rng.Read(m.Sig)
		}
		return m
	case 3:
		return RingAdmitReq{ID: id.ID(rng.Uint64()), Key: randKeyC(rng), Endpoint: "10.0.0.7:9101"}
	default:
		return RingAdmitResp{
			OK:        rng.Intn(2) == 0,
			CAAddr:    transport.Addr(rng.Int31n(1 << 20)),
			Bootstrap: randPeerC(rng),
			Grant: CertIssueResp{
				OK:     rng.Intn(2) == 0,
				Self:   randPeerC(rng),
				Cert:   randCertC(rng),
				CAKey:  randKeyC(rng),
				Roster: randRoster(),
			},
		}
	}
}

func TestMembershipCoreMessagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 300; i++ {
		roundTripCore(t, randMembershipCoreMessage(rng, i))
	}
}

// TestCorruptMembershipCoreRejected flips bytes in admission frames;
// decoding must fail cleanly or yield some message — never panic.
func TestCorruptMembershipCoreRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 200; i++ {
		m := randMembershipCoreMessage(rng, i)
		enc, err := transport.Encode(m)
		if err != nil || len(enc) == 0 {
			t.Fatalf("Encode(%T): %v", m, err)
		}
		enc[rng.Intn(len(enc))] ^= byte(1 + rng.Intn(255))
		_, _ = transport.Decode(enc) // must not panic
	}
}

// TestOnionSizeGrowsPerLayer checks that each onion layer adds its real
// framing overhead — the property the paper's bandwidth accounting models
// with OnionWireOverhead, now enforced by the codec itself.
func TestOnionSizeGrowsPerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prev := 0
	for depth := 1; depth <= 6; depth++ {
		fwd := randForward(rng, depth)
		fwd.Delay = 0
		size := fwd.Size()
		if size <= prev {
			t.Fatalf("depth %d: size %d not larger than depth %d's %d", depth, size, depth-1, prev)
		}
		prev = size
	}
}

// TestCorruptCoreFramesRejected flips bytes; decode must never panic.
func TestCorruptCoreFramesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		m := randCoreMessage(rng, i)
		enc, err := transport.Encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		mut := append([]byte(nil), enc...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		_, _ = transport.Decode(mut) // must not panic
		for cut := 0; cut < len(enc); cut += 1 + rng.Intn(8) {
			_, _ = transport.Decode(enc[:cut])
		}
	}
}
