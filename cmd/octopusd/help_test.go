package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
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

// TestLinksNoHTTPStack keeps net/http and the TLS stack it pulls in out of
// the daemon's link: -metrics-listen is served by internal/daemon's own
// bounded responder, and anything it serves later (pprof output among it)
// goes through that responder, never net/http/pprof.
func TestLinksNoHTTPStack(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "net/http", "crypto/tls", "crypto/x509":
			t.Errorf("octopusd links %s", pkg)
		}
	}
}
