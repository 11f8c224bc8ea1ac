package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/adversary"
	"github.com/octopus-dht/octopus/internal/core"
)

// update re-pins testdata/digests.txt from the code under test:
//
//	go test ./internal/experiments -run TestSeededDigests -update
//
// That is the only sanctioned way to change the file. Do it in a commit of
// its own, and only when a change is MEANT to move seeded results.
var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this run")

const digestFile = "testdata/digests.txt"

// seededRuns lists one CI-sized run per seeded experiment. Sizes are fixed —
// not scaled by -short — so the same digests hold in every test mode.
var seededRuns = []struct {
	name string
	run  func(t *testing.T) any
}{
	{"security-bias", func(*testing.T) any {
		return RunSecurity(digestSecurity(adversary.Strategy{AttackRate: 1, BiasLookups: true}))
	}},
	{"security-dos", func(*testing.T) any {
		cfg := digestSecurity(adversary.Strategy{AttackRate: 1, SelectiveDrop: true})
		cfg.DoSDefense = true
		return RunSecurity(cfg)
	}},
	{"security-finger", func(*testing.T) any {
		return RunSecurity(digestSecurity(adversary.Strategy{
			AttackRate: 1, ManipulateFingers: true, ConsistentPredRate: 0.5,
		}))
	}},
	// Table 2's rejoin path: churned slots come back through the CA.
	{"security-churn", func(*testing.T) any {
		cfg := digestSecurity(adversary.Strategy{AttackRate: 1, BiasLookups: true})
		cfg.ChurnMean = 10 * time.Minute
		return RunSecurity(cfg)
	}},
	{"efficiency-octopus", func(*testing.T) any { return RunOctopusEfficiency(digestEfficiency()) }},
	{"efficiency-chord", func(*testing.T) any { return RunChordEfficiency(digestEfficiency()) }},
	{"efficiency-halo", func(*testing.T) any { return RunHaloEfficiency(digestEfficiency()) }},
	{"load-managed", func(*testing.T) any { return RunLoad(digestLoad(DefaultLoadConfig)) }},
	{"load-sequential", func(*testing.T) any { return RunLoad(digestLoad(SequentialLoadConfig)) }},
	{"storage", func(*testing.T) any {
		cfg := DefaultStorageConfig()
		cfg.N = 80
		cfg.Rate = 6
		cfg.Duration = 45 * time.Second
		cfg.WarmUp = 30 * time.Second
		cfg.Kills = 2
		return RunStorage(cfg)
	}},
	{"chaos", func(*testing.T) any {
		cfg := scaledChaosConfig()
		cfg.N = 120
		cfg.WarmUp = 30 * time.Second
		cfg.PostRecovery = 30 * time.Second
		return RunChaos(cfg)
	}},
	// The headline rows also log the numbers ROADMAP.md and CHANGES.md
	// quote; -v prints them.
	{"timing-table1", func(t *testing.T) any {
		cfg := adversary.DefaultTimingConfig()
		cfg.N = 100_000
		cfg.SamplePairs = 100
		res := adversary.SimulateTimingAttack(cfg)
		t.Logf("err%% %.4g  leak-bits %.4g", res.ErrorRate*100, res.InfoLeakBits)
		// At err% 100 the result is the same for every sample size, so the
		// configuration is pinned beside it.
		return []any{cfg, res}
	}},
	{"load-headline", func(t *testing.T) any {
		seq := RunLoad(testLoadConfig(SequentialLoadConfig))
		par := RunLoad(testLoadConfig(DefaultLoadConfig))
		t.Logf("thr-seq/s %.4g  thr-par/s %.4g  speedup %.4g  p95-s %.4g",
			seq.Throughput, par.Throughput, par.Throughput/seq.Throughput, par.P95.Seconds())
		return []LoadResult{seq, par}
	}},
	{"storage-headline", func(t *testing.T) any {
		res := RunStorage(testStorageConfig())
		t.Logf("hit%% %.4g  get-p95-s %.4g  put-p95-s %.4g",
			res.HitRate*100, res.GetP95.Seconds(), res.PutP95.Seconds())
		return res
	}},
	// The one-hop tier's maintenance cost where it is worst: every event of
	// the storm must reach the whole ring. Seed 1 until a seed sweep picks one.
	{"chaos-onehop", func(t *testing.T) any {
		cfg := scaledChaosConfig()
		cfg.Tier = core.TierOneHop
		res := RunChaos(cfg)
		t.Logf("maint-B/node/s %.4g  success%% %.4g",
			res.TierMaintBytesPerNodeSec, res.PostRecovery.LookupSuccess*100)
		return res
	}},
}

func digestSecurity(strategy adversary.Strategy) SecurityConfig {
	return SecurityConfig{
		N:           120,
		F:           0.20,
		Strategy:    strategy,
		Duration:    400 * time.Second,
		SampleEvery: 100 * time.Second,
		LookupEvery: time.Minute,
		Seed:        1,
	}
}

func digestEfficiency() EfficiencyConfig {
	cfg := DefaultEfficiencyConfig()
	cfg.Nodes = 100
	cfg.Lookups = 60
	cfg.WarmUp = 2 * time.Minute
	cfg.BandwidthWindow = 2 * time.Minute
	return cfg
}

func digestLoad(mk func() LoadConfig) LoadConfig {
	cfg := mk()
	cfg.N = 80
	cfg.Rate = 10
	cfg.Duration = 30 * time.Second
	cfg.WarmUp = 30 * time.Second
	return cfg
}

// TestSeededDigests is the refactor safety net: every seeded experiment's
// fully serialized result must hash to the digest committed in
// testdata/digests.txt. The determinism tests beside it compare a run with
// itself inside one process; this one compares it with the run that was
// committed, so "seeded figures stayed bit-identical" fails here instead of
// being a sentence in a PR description.
func TestSeededDigests(t *testing.T) {
	want := map[string]string{}
	if !*update {
		body, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatalf("%v (create it with -update)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if f := strings.Fields(line); len(f) == 2 {
				want[f[0]] = f[1]
			}
		}
	}
	got := make([]string, len(seededRuns))
	t.Run("runs", func(t *testing.T) {
		for i, r := range seededRuns {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel() // each run owns its simulator; nothing is shared
				got[i] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", r.run(t)))))
				if !*update && got[i] != want[r.name] {
					t.Errorf("digest %s, committed %s: seeded results moved "+
						"(re-pin ONLY if that was the point: go test ./internal/experiments -run TestSeededDigests -update)",
						got[i], want[r.name])
				}
			})
		}
	})
	if !*update {
		if len(want) != len(seededRuns) {
			t.Errorf("%s has %d entries, want %d", digestFile, len(want), len(seededRuns))
		}
		return
	}
	lines := make([]string, len(seededRuns))
	for i, r := range seededRuns {
		lines[i] = r.name + " " + got[i]
	}
	sort.Strings(lines)
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
