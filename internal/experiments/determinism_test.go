package experiments

import (
	"fmt"
	"testing"
	"time"
)

// Every experiment in this package is a pure function of (seed, config):
// the simulator is single-threaded over a seeded RNG, all arrival processes
// draw from their own seeded streams, and nothing reads the wall clock.
// These regression tests pin that property for the headline experiments by
// running each twice and comparing the fully serialized results byte for
// byte — the same property the committed digests and the chaos replay
// workflow stand on. A diff here means nondeterminism leaked in (a map
// iteration, a time.Now, an unseeded rand), which would silently turn
// every committed baseline into noise.

func TestLoadExperimentIsDeterministic(t *testing.T) {
	cfg := DefaultLoadConfig()
	cfg.N = 80
	cfg.Rate = 10
	cfg.Duration = 30 * time.Second
	cfg.WarmUp = 30 * time.Second
	a := fmt.Sprintf("%#v", RunLoad(cfg))
	b := fmt.Sprintf("%#v", RunLoad(cfg))
	if a != b {
		t.Fatalf("two load runs from seed %d diverged:\n--- A ---\n%s\n--- B ---\n%s",
			cfg.Seed, a, b)
	}
}

func TestStorageExperimentIsDeterministic(t *testing.T) {
	cfg := DefaultStorageConfig()
	cfg.N = 80
	cfg.Rate = 6
	cfg.Duration = 45 * time.Second
	cfg.WarmUp = 30 * time.Second
	cfg.Kills = 2
	a := fmt.Sprintf("%#v", RunStorage(cfg))
	b := fmt.Sprintf("%#v", RunStorage(cfg))
	if a != b {
		t.Fatalf("two storage runs from seed %d diverged:\n--- A ---\n%s\n--- B ---\n%s",
			cfg.Seed, a, b)
	}
}
