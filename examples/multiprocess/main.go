// Multiprocess: the Octopus ring as a real multi-process deployment.
//
// This example scripts what docs/DEPLOYMENT.md walks through by hand: it
// builds the octopusd daemon, writes a ring configuration that splits a
// 12-node ring across two TCP endpoints, starts two OS processes, and has
// the second process perform an anonymous lookup whose owner lives in the
// first process — every query, walk, and stabilization message crossing
// real sockets between them.
//
//	go run ./examples/multiprocess
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/octopus-dht/octopus/internal/daemon"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "octopus-multiprocess")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "octopusd")
	fmt.Println("Building octopusd ...")
	build := exec.Command("go", "build", "-o", bin, "github.com/octopus-dht/octopus/cmd/octopusd")
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build octopusd: %v\n%s", err, out)
	}

	eps, err := freePorts(2)
	if err != nil {
		return err
	}
	const n = 12
	rc := daemon.RingConfig{Seed: 42, CA: eps[0]}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%2]) // even slots on A, odd on B
	}
	cfgPath := filepath.Join(dir, "ring.json")
	raw, _ := json.MarshalIndent(rc, "", "  ")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("Ring config (%s):\n%s\n\n", cfgPath, raw)

	fmt.Printf("Starting process A on %s (6 nodes + CA) ...\n", eps[0])
	procA := exec.Command(bin, "-config", cfgPath, "-listen", eps[0],
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	stream("A", procA)
	if err := procA.Start(); err != nil {
		return err
	}
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()

	// "cross-process" is owned by a node process A serves (seed 42), so
	// B's lookup provably resolves across the process boundary.
	fmt.Printf("Starting process B on %s (6 nodes), which will look up %q ...\n\n", eps[1], "cross-process")
	procB := exec.Command(bin, "-config", cfgPath, "-listen", eps[1],
		"-walk-every", "300ms", "-stabilize-every", "500ms",
		"-lookup", "cross-process", "-once")
	printed := stream("B", procB)
	if err := procB.Start(); err != nil {
		return err
	}

	done := make(chan error, 1)
	go func() { <-printed; done <- procB.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("process B failed: %w", err)
		}
	case <-time.After(3 * time.Minute):
		procB.Process.Kill()
		return fmt.Errorf("process B never completed its lookup")
	}

	fmt.Println("\nAnonymous lookup completed and verified across 2 OS processes over TCP.")
	return nil
}

// stream prefixes and forwards a process's combined output. done closes at
// EOF; cmd.Wait closes the pipe and must not run before that.
func stream(name string, cmd *exec.Cmd) (done <-chan struct{}) {
	stdout, _ := cmd.StdoutPipe()
	cmd.Stderr = cmd.Stdout
	sc := bufio.NewScanner(stdout)
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		for sc.Scan() {
			fmt.Printf("  [%s] %s\n", name, sc.Text())
		}
	}()
	return eof
}

// freePorts reserves k kernel-assigned loopback ports.
func freePorts(k int) ([]string, error) {
	eps := make([]string, k)
	lns := make([]net.Listener, k)
	for i := range eps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		eps[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return eps, nil
}
