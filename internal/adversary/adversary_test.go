package adversary

import (
	"math/rand"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// testNet bundles a deployment with the simulator that drives it (the
// simulator is no longer part of core's API: core speaks transport only).
type testNet struct {
	*core.Network
	Sim *simnet.Simulator
}

func buildNet(t *testing.T, seed int64, n int) *testNet {
	t.Helper()
	sim := simnet.New(seed)
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = n
	cfg.WalkEvery = 5 * time.Second
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: 10 * time.Millisecond}, n+1)
	nw, err := core.BuildNetwork(net, n, cfg)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	return &testNet{Network: nw, Sim: sim}
}

func TestInstallSelectsFraction(t *testing.T) {
	nw := buildNet(t, 1, 100)
	adv := Install(nw.Network, 0.2, Strategy{AttackRate: 1, BiasLookups: true}, rand.New(rand.NewSource(2)))
	if len(adv.Members) != 20 {
		t.Errorf("members = %d, want 20", len(adv.Members))
	}
	if len(adv.Colluders) != 20 {
		t.Errorf("colluders = %d, want 20", len(adv.Colluders))
	}
	for i := 1; i < len(adv.Colluders); i++ {
		if adv.Colluders[i-1].ID >= adv.Colluders[i].ID {
			t.Fatal("colluders not sorted by ring position")
		}
	}
	if adv.AliveMembers() != 20 {
		t.Errorf("alive members = %d, want 20", adv.AliveMembers())
	}
}

func TestBiasedTableServed(t *testing.T) {
	nw := buildNet(t, 3, 100)
	adv := Install(nw.Network, 0.2, Strategy{AttackRate: 1, BiasLookups: true}, rand.New(rand.NewSource(4)))

	// Query a malicious node directly and check its successor list is
	// forged toward colluders (or pruned to the farthest honest entry).
	var evil simnet.Address
	for addr := range adv.Members {
		evil = addr
		break
	}
	honest := simnet.Address(-1)
	for i := 0; i < 100; i++ {
		if !adv.IsMalicious(simnet.Address(i)) {
			honest = simnet.Address(i)
			break
		}
	}
	var got chord.RoutingTable
	nw.Net.Call(honest, evil, chord.GetTableReq{IncludeSuccessors: true}, time.Second,
		func(resp simnet.Message, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
				return
			}
			if r, ok := resp.(chord.GetTableResp); ok {
				got = r.Table
			}
		})
	nw.Sim.Run(nw.Sim.Now() + time.Second)
	if len(got.Successors) == 0 {
		t.Fatal("no successor list returned")
	}
	trueSuccs := nw.Node(evil).Chord.Successors()
	same := len(got.Successors) == len(trueSuccs)
	if same {
		for i := range got.Successors {
			if got.Successors[i] != trueSuccs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("malicious node served its honest successor list despite AttackRate=1")
	}
	// The forged table must still be validly signed (attackers sign their
	// own lies; that is what makes them non-repudiable evidence).
	if !nw.Dir.VerifyTable(got) {
		t.Error("forged table is not validly signed")
	}
	if adv.BiasedResponses == 0 {
		t.Error("BiasedResponses not counted")
	}
}

func TestBiasAttackBiasesLookupsAndGetsCaught(t *testing.T) {
	nw := buildNet(t, 5, 100)
	adv := Install(nw.Network, 0.2, Strategy{AttackRate: 1, BiasLookups: true}, rand.New(rand.NewSource(6)))

	before := adv.AliveMembers()
	nw.Sim.Run(12 * time.Minute)
	after := adv.AliveMembers()
	if after >= before {
		t.Errorf("no attackers identified: %d -> %d (CA stats %+v)", before, after, nw.CA.Stats())
	}
	// Zero false positives: every revocation must be a colluder.
	if got, want := int(nw.CA.Stats().Revocations), before-after; got != want {
		t.Errorf("revocations = %d but alive colluders dropped by %d (honest node revoked?)", got, want)
	}
}

func TestFingerManipulationGetsCaught(t *testing.T) {
	nw := buildNet(t, 7, 100)
	adv := Install(nw.Network, 0.2, Strategy{
		AttackRate:         1,
		ManipulateFingers:  true,
		ConsistentPredRate: 0.5,
	}, rand.New(rand.NewSource(8)))

	before := adv.AliveMembers()
	nw.Sim.Run(15 * time.Minute)
	after := adv.AliveMembers()
	if after >= before {
		t.Errorf("no finger manipulators identified: %d -> %d (CA stats %+v)", before, after, nw.CA.Stats())
	}
	for addr := range adv.Members {
		_ = addr
	}
	// All revocations must hit colluders.
	if got, want := int(nw.CA.Stats().Revocations), before-after; got != want {
		t.Errorf("revocations = %d, colluders removed = %d", got, want)
	}
}

func TestForgeSuccessorsPrefersColluders(t *testing.T) {
	adv := &Adversary{
		Colluders: []chord.Peer{{ID: 100, Addr: 1}, {ID: 200, Addr: 2}, {ID: 300, Addr: 3}},
		rng:       rand.New(rand.NewSource(1)),
	}
	self := chord.Peer{ID: 150, Addr: 9}
	honest := []chord.Peer{{ID: 160, Addr: 4}, {ID: 170, Addr: 5}}
	got := adv.forgeSuccessors(self, honest)
	if len(got) == 0 {
		t.Fatal("empty forged list")
	}
	if got[0].ID != 200 {
		t.Errorf("first forged successor = %v, want colluder 200", got[0])
	}
	for _, p := range got {
		if p.ID == self.ID {
			t.Error("forged list contains the owner itself")
		}
	}
}

func TestForgeFingersRespectsPlausibility(t *testing.T) {
	adv := &Adversary{
		Colluders: []chord.Peer{{ID: 1 << 62, Addr: 1}},
		rng:       rand.New(rand.NewSource(1)),
	}
	owner := chord.Peer{ID: 0, Addr: 9}
	honest := chord.Peer{ID: id.ID(1<<61 + 500), Addr: 4}
	table := chord.RoutingTable{
		Owner:      owner,
		Fingers:    []chord.Peer{honest},
		FingerExps: []uint8{61},
	}
	// The colluder at 2^62 is 2^61 past the ideal 2^61 while the honest
	// finger is only 500 past: redirecting would scream manipulation, so
	// the adversary must leave the slot alone.
	if adv.forgeFingers(&table) {
		t.Error("adversary redirected a finger to an implausibly distant colluder")
	}
	// A colluder just past the ideal is taken.
	adv.Colluders = []chord.Peer{{ID: id.ID(1<<61 + 700), Addr: 2}}
	if !adv.forgeFingers(&table) {
		t.Error("adversary failed to redirect to a plausible colluder")
	}
	if table.Fingers[0].Addr != 2 {
		t.Errorf("finger not redirected: %v", table.Fingers[0])
	}
}

func TestSelectiveDropInstalls(t *testing.T) {
	nw := buildNet(t, 9, 60)
	adv := Install(nw.Network, 0.2, Strategy{AttackRate: 1, SelectiveDrop: true}, rand.New(rand.NewSource(10)))
	evil, honest := simnet.Address(-1), simnet.Address(-1)
	for addr := simnet.Address(0); addr < 60; addr++ {
		if adv.Members[addr] && evil < 0 {
			evil = addr
		} else if !adv.Members[addr] && honest < 0 {
			honest = addr
		}
	}
	// One relayed query each, on top of whatever the ring's own walks and
	// probes route through the two nodes meanwhile.
	nw.Net.Send(honest, evil, core.RelayForward{QID: 1, Depth: 1})
	nw.Net.Send(evil, honest, core.RelayForward{QID: 2, Depth: 1})
	nw.Sim.Run(time.Minute)
	if got := nw.Node(evil).Stats().RelayedForwards.Load(); got != 0 {
		t.Errorf("dropper relayed %d queries at AttackRate=1, want 0", got)
	}
	if nw.Node(honest).Stats().RelayedForwards.Load() == 0 {
		t.Error("honest node relayed nothing: the drop is not selective")
	}
}

func TestTimingAttackDefenseEffective(t *testing.T) {
	cfg := DefaultTimingConfig()
	cfg.N = 200_000
	cfg.ConcurrentRate = 0.01
	cfg.SamplePairs = 200
	res := SimulateTimingAttack(cfg)
	// Table 1: with a 100 ms max delay the error rate exceeds 99 %.
	if res.ErrorRate < 0.95 {
		t.Errorf("error rate = %.4f, want > 0.95 (timing defense ineffective)", res.ErrorRate)
	}
	if res.InfoLeakBits > 1.0 {
		t.Errorf("info leak = %.3f bits, want < 1", res.InfoLeakBits)
	}
	if res.Candidates != 2000 {
		t.Errorf("candidates = %d, want 2000", res.Candidates)
	}
}

func TestTimingAttackErrorGrowsWithConcurrency(t *testing.T) {
	base := DefaultTimingConfig()
	base.N = 200_000
	base.SamplePairs = 300
	low := base
	low.ConcurrentRate = 0.001
	high := base
	high.ConcurrentRate = 0.02
	rLow := SimulateTimingAttack(low)
	rHigh := SimulateTimingAttack(high)
	// More concurrent lookups → more confusable candidates → error should
	// not decrease (Table 1's trend across α).
	if rHigh.ErrorRate+0.02 < rLow.ErrorRate {
		t.Errorf("error did not grow with concurrency: α=0.1%% → %.4f, α=2%% → %.4f",
			rLow.ErrorRate, rHigh.ErrorRate)
	}
}
