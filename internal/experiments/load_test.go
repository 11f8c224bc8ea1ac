package experiments

import (
	"testing"
	"time"
)

// testLoadConfig shrinks a load run for CI (the nightly workflow runs this
// test under -race at the same scale).
func testLoadConfig(mk func() LoadConfig) LoadConfig {
	cfg := mk()
	cfg.N = 100
	cfg.Duration = time.Minute
	return cfg
}

// TestLoadExperiment pins the headline claim of the serving path: with
// α-parallel lookups, a worker pool, and the managed relay-pair pool, the
// same deployment serves at least twice the anonymous-lookup throughput of
// the paper's sequential one-at-a-time path under the identical offered
// load — and the run is deterministic under its seed.
func TestLoadExperiment(t *testing.T) {
	seq := RunLoad(testLoadConfig(SequentialLoadConfig))
	par := RunLoad(testLoadConfig(DefaultLoadConfig))

	if seq.Completed == 0 || par.Completed == 0 {
		t.Fatalf("no completions: sequential %+v, parallel %+v", seq, par)
	}
	if seq.Failed > 0 || par.Failed > 0 {
		t.Errorf("lookup failures under load: sequential %d, parallel %d", seq.Failed, par.Failed)
	}
	if seq.Offered != par.Offered {
		t.Errorf("offered load differs: %d vs %d (arrival process must not depend on serving config)",
			seq.Offered, par.Offered)
	}
	if par.Throughput < 2*seq.Throughput {
		t.Errorf("α=3 + pool throughput %.2f/s < 2× sequential %.2f/s", par.Throughput, seq.Throughput)
	}
	if par.P95 >= seq.P95 {
		t.Errorf("parallel p95 %v not below sequential p95 %v", par.P95, seq.P95)
	}
	if par.RefillWalks == 0 {
		t.Error("managed pool never launched a walk-ahead refill under load")
	}

	// Determinism: the load-headline digest pins these numbers, so a repeat run
	// with the same seed must reproduce them exactly.
	again := RunLoad(testLoadConfig(DefaultLoadConfig))
	if again != par {
		t.Errorf("load run not deterministic:\n first %+v\nsecond %+v", par, again)
	}
}
