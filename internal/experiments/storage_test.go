package experiments

import (
	"testing"
	"time"
)

// testStorageConfig is RunStorage at test scale.
func testStorageConfig() StorageConfig {
	cfg := DefaultStorageConfig()
	cfg.N = 80
	cfg.Keys = 24
	cfg.Duration = time.Minute
	cfg.WarmUp = 30 * time.Second
	cfg.Kills = 2
	return cfg
}

// TestStorageExperiment pins the storage workload's contract: the run is
// deterministic (same seed, same numbers — what lets the storage-headline
// digest pin them), the offered mix actually lands, reads of written
// keys hit despite mid-run churn, and the churn script really killed and
// re-admitted nodes.
func TestStorageExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-minute simulated workload")
	}
	cfg := testStorageConfig()
	res := RunStorage(cfg)

	if res.Puts == 0 || res.Gets == 0 {
		t.Fatalf("degenerate mix: %d puts, %d gets", res.Puts, res.Gets)
	}
	if res.PutOK < res.Puts*9/10 {
		t.Errorf("only %d/%d puts acknowledged", res.PutOK, res.Puts)
	}
	if res.Kills != cfg.Kills {
		t.Errorf("churn script killed %d nodes, want %d", res.Kills, cfg.Kills)
	}
	if res.Rejoins == 0 {
		t.Error("no replacement ever rejoined")
	}
	if res.HitRate < 0.9 {
		t.Errorf("hit rate %.3f under churn, want >= 0.9 (hits=%d misses=%d)",
			res.HitRate, res.Hits, res.Misses)
	}
	if res.GetP95 <= 0 || res.PutP95 <= 0 {
		t.Error("missing latency percentiles")
	}

	again := RunStorage(cfg)
	if res != again {
		t.Errorf("same seed produced different results:\n  %+v\n  %+v", res, again)
	}
}
