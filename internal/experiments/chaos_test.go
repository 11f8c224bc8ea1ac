package experiments

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// scaledChaosConfig is the CI-sized storm: the same 40% kill script and the
// same SLOs as the full suite, on a 200-node ring.
func scaledChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.N = 200
	cfg.WarmUp = 45 * time.Second
	cfg.Baseline = 30 * time.Second
	cfg.PostRecovery = time.Minute
	return cfg
}

// dumpStormLog writes the replayable storm event log where CHAOS_LOG points
// — the artifact a nightly CI run uploads when the suite fails, so the
// failing seed's storm can be read without rerunning anything.
func dumpStormLog(t *testing.T, res ChaosResult) {
	t.Helper()
	path := os.Getenv("CHAOS_LOG")
	if path == "" {
		return
	}
	body := fmt.Sprintf("seed %d  pass=%v recovered=%v ttr=%v\n"+
		"baseline: %+v\nstorm:    %+v\npost:     %+v\n--- storm events ---\n%s",
		DefaultChaosConfig().Seed, res.Pass, res.Recovered, res.TimeToRecovery,
		res.Baseline, res.Storm, res.PostRecovery, res.StormLog)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("CHAOS_LOG: %v", err)
	}
}

// TestChaosStormMeetsSLOs is the acceptance drill: the ring survives the
// scripted 40% kill-storm plus flash-crowd rejoin and, after recovery,
// sustains ≥95% anonymous-lookup success and ≥99% store hit rate. Short
// mode runs the 200-node CI storm; the full run (nightly, under -race)
// drives the complete 1000-node suite.
func TestChaosStormMeetsSLOs(t *testing.T) {
	cfg := scaledChaosConfig()
	if !testing.Short() {
		cfg = DefaultChaosConfig()
	}
	res := RunChaos(cfg)
	dumpStormLog(t, res)

	wantKilled := int(0.4 * float64(cfg.N-cfg.ServingNodes))
	if res.Killed != wantKilled {
		t.Errorf("storm killed %d nodes, want 40%% of %d = %d",
			res.Killed, cfg.N-cfg.ServingNodes, wantKilled)
	}
	if res.Rejoined != res.Killed {
		t.Errorf("flash rejoin fired %d of %d killed slots", res.Rejoined, res.Killed)
	}
	if !res.Recovered {
		t.Fatalf("ring never met SLOs within %v of the storm\nstorm phase: %+v\nlog:\n%s",
			cfg.SLO.RecoverWithin, res.Storm, res.StormLog)
	}
	if res.TimeToRecovery <= 0 || res.TimeToRecovery > cfg.StormHold+cfg.SLO.RecoverWithin {
		t.Errorf("TimeToRecovery = %v, want within (0, %v]",
			res.TimeToRecovery, cfg.StormHold+cfg.SLO.RecoverWithin)
	}
	if res.PostRecovery.LookupSuccess < cfg.SLO.LookupSuccess {
		t.Errorf("post-recovery lookup success %.4f < SLO %.2f (%d/%d)",
			res.PostRecovery.LookupSuccess, cfg.SLO.LookupSuccess,
			res.PostRecovery.LookupOK, res.PostRecovery.Lookups)
	}
	if res.PostRecovery.HitRate < cfg.SLO.StoreHit {
		t.Errorf("post-recovery store hit rate %.4f < SLO %.2f (hits %d, misses %d)",
			res.PostRecovery.HitRate, cfg.SLO.StoreHit,
			res.PostRecovery.Hits, res.PostRecovery.Misses)
	}
	if !res.Pass {
		t.Errorf("Pass = false with recovered=%v post=%+v", res.Recovered, res.PostRecovery)
	}
	// The calm baseline itself must hold the SLOs, or the storm verdict is
	// meaningless.
	if res.Baseline.LookupSuccess < cfg.SLO.LookupSuccess || res.Baseline.HitRate < cfg.SLO.StoreHit {
		t.Errorf("baseline below SLO before any storm: %+v", res.Baseline)
	}
}

// TestChaosReplaysByteIdentically pins the harness's foundation: the same
// seed and script reproduce the identical result — every counter, every
// phase rate, the recovery time, and the storm's event log.
func TestChaosReplaysByteIdentically(t *testing.T) {
	cfg := scaledChaosConfig()
	cfg.N = 120
	cfg.WarmUp = 30 * time.Second
	cfg.PostRecovery = 30 * time.Second
	a := fmt.Sprintf("%#v", RunChaos(cfg))
	b := fmt.Sprintf("%#v", RunChaos(cfg))
	if a != b {
		t.Fatalf("two runs from seed %d diverged:\n--- A ---\n%s\n--- B ---\n%s", cfg.Seed, a, b)
	}
}

// TestChaosCalmReadsNeverMiss pins the read verdict to the instant the Get
// was issued: on a ring nothing is done to, a Get that finds nothing can only
// have raced the key's first Put, which makes it Unwritten, not a Miss. A
// verdict taken at completion counted such a race as a miss on about one seed
// in three (1, 5 and 9 of the first twelve when this was fixed).
func TestChaosCalmReadsNeverMiss(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		cfg := scaledChaosConfig()
		cfg.Seed = seed
		cfg.Script = nil
		cfg.Baseline = time.Minute
		cfg.StormHold, cfg.SLO.RecoverWithin, cfg.PostRecovery = time.Second, time.Second, time.Second
		if b := RunChaos(cfg).Baseline; b.Misses != 0 || b.Gets == 0 {
			t.Errorf("seed %d: calm phase %+v, want reads and no misses", seed, b)
		}
	}
}
