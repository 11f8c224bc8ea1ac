package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestSeededIndexGolden pins the phase-2 hop draw: a SHA-256 over 100 000
// seededIndex results (widths 1…200, every fourth a power of two). Walker and
// verifier may run different builds, so the draw is protocol, not
// implementation.
func TestSeededIndexGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/seeded_index.sha256")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	draws := make([]byte, 100000)
	for i := range draws {
		seed, step, n := int64(rng.Uint64()), 1+rng.Intn(16), 1+rng.Intn(200)
		if i%4 == 3 {
			n = 1 << rng.Intn(8)
		}
		draws[i] = byte(seededIndex(seed, step, n))
	}
	sum := sha256.Sum256(draws)
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(string(raw)); got != want {
		t.Errorf("digest of 100000 seededIndex draws is %s, golden %s", got, want)
	}
}
