package chantransport_test

import (
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/transport/chantransport"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// TestChanTransportConformance runs the shared transport conformance suite
// against the channel backend, which bench's RPC probe still uses.
//
// transporttest.RunCloseContract is deliberately not run here: this
// backend's Close gives a call still in flight no callback. The package is
// to be deleted once that probe retires, not fixed; a one-process
// nettransport is the concurrent in-process backend, and it passes that
// contract.
func TestChanTransportConformance(t *testing.T) {
	transporttest.RunConformance(t, func(t *testing.T, hosts int) transporttest.Harness {
		net := chantransport.New(hosts, 1)
		return transporttest.Harness{
			Tr:         net,
			Advance:    func(d time.Duration) { time.Sleep(d) },
			Close:      net.Close,
			Concurrent: true,
		}
	})
}

// TestImportedByBenchAlone keeps this fixture from picking up users before
// bench's RPC probe retires and the package is deleted: no package but
// bench may import it, from its own files or from its tests.
func TestImportedByBenchAlone(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	const (
		self  = "github.com/octopus-dht/octopus/internal/transport/chantransport"
		bench = "github.com/octopus-dht/octopus/bench"
	)
	cmd := exec.Command(goBin, "list", "-f",
		`{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`, "./...")
	cmd.Dir = "../../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	benchSeen := false
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == self {
			continue
		}
		for _, imp := range f[1:] {
			if imp != self {
				continue
			}
			if f[0] == bench {
				benchSeen = true
			} else {
				t.Errorf("%s imports %s; only bench may", f[0], self)
			}
			break
		}
	}
	if !benchSeen {
		t.Errorf("bench no longer imports %s: delete the package", self)
	}
}
