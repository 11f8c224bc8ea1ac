package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"

	"github.com/octopus-dht/octopus/internal/daemon"
)

// ringConfig is the descriptor the multi-process tests in main_test.go write
// for their daemons; they predate its move to internal/daemon.
type ringConfig = daemon.RingConfig

// TestHelpGolden pins the daemon's whole option surface — section titles,
// flag names, order, help texts and defaults — to testdata/help.golden,
// which was captured from the binary as it stood before the lifecycle moved
// to internal/daemon. bench/, docs/DEPLOYMENT.md and the multi-process tests
// all start octopusd by flag name, so a refactor that moves, renames or
// re-defaults a flag fails here first. -help must also keep exiting 0.
func TestHelpGolden(t *testing.T) {
	bin := buildOctopusd(t, t.TempDir())
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-help")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("octopusd -help: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-help wrote to stdout:\n%s", stdout.String())
	}
	if got := stderr.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("-help output differs from testdata/help.golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
