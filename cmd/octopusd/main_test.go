package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/simnet"
	storepkg "github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// buildOctopusd compiles the daemon binary once per test into dir.
func buildOctopusd(t *testing.T, dir string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(dir, "octopusd")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build octopusd: %v\n%s", err, out)
	}
	return bin
}

// logSink captures one process's interleaved stdout/stderr for polling.
type logSink struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *logSink) attach(t *testing.T, name string, cmd *exec.Cmd) {
	t.Helper()
	captureLines(t, cmd, func(line string) {
		s.mu.Lock()
		fmt.Fprintln(&s.b, line)
		s.mu.Unlock()
		t.Logf("[%s] %s", name, line)
	})
}

// lineWriter hands each complete line written to it to emit.
type lineWriter struct {
	buf  []byte
	emit func(line string)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.emit(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
}

// flush emits what a process wrote after its last newline, if anything.
func (w *lineWriter) flush() {
	if len(w.buf) > 0 {
		w.emit(string(w.buf))
		w.buf = nil
	}
}

// captureLines feeds cmd's interleaved stdout/stderr to emit line by line.
// The writer is not an *os.File, so os/exec copies into it from a goroutine of
// its own and cmd.Wait returns only after that copy reached EOF: every line
// the process wrote has been emitted by then. A reader on cmd.StdoutPipe gives
// no such guarantee — Wait closes the pipe under it and the last lines are
// lost. An unterminated last line (a child cut off mid-write) is emitted when
// the test ends, after every Wait.
func captureLines(t *testing.T, cmd *exec.Cmd, emit func(line string)) {
	w := &lineWriter{emit: emit}
	cmd.Stdout, cmd.Stderr = w, w
	t.Cleanup(w.flush)
}

// waitForLog polls a sink until the marker appears.
func waitForLog(t *testing.T, s *logSink, marker string, timeout time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if strings.Contains(s.String(), marker) {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("%s: %q never appeared; log so far:\n%s", what, marker, s.String())
}

// freePorts reserves k distinct kernel-assigned loopback ports. The
// listeners are closed before use, which is racy in principle; in practice
// the kernel does not re-assign an ephemeral port this quickly.
func freePorts(t *testing.T, k int) []string {
	t.Helper()
	eps := make([]string, k)
	lns := make([]net.Listener, k)
	for i := range eps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		eps[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return eps
}

// TestMultiprocessAnonymousLookup is the acceptance test for the socket
// deployment: it builds the octopusd binary, starts two OS processes that
// split a 12-node ring between them (process A also hosts the CA), and
// requires process B to complete — and verify — an anonymous lookup whose
// every query crosses real TCP sockets between the processes.
func TestMultiprocessAnonymousLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and builds a binary")
	}
	dir := t.TempDir()
	bin := buildOctopusd(t, dir)

	eps := freePorts(t, 2)
	const n = 12
	rc := ringConfig{Seed: 42, CA: eps[0]}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%2])
	}
	cfgPath := filepath.Join(dir, "ring.json")
	raw, _ := json.Marshal(rc)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}

	var logMu sync.Mutex
	var logB bytes.Buffer
	pipe := func(name string, cmd *exec.Cmd, keep *bytes.Buffer) {
		captureLines(t, cmd, func(line string) {
			logMu.Lock()
			if keep != nil {
				fmt.Fprintln(keep, line)
			}
			logMu.Unlock()
			t.Logf("[%s] %s", name, line)
		})
	}

	procA := exec.Command(bin, "-config", cfgPath, "-listen", eps[0],
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	pipe("A", procA, nil)
	if err := procA.Start(); err != nil {
		t.Fatalf("start process A: %v", err)
	}
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()

	// "cross-process" hashes to a ring position owned by a node that
	// process A serves (slot 10 under seed 42), so the lookup's exit
	// queries provably leave process B.
	procB := exec.Command(bin, "-config", cfgPath, "-listen", eps[1],
		"-walk-every", "300ms", "-stabilize-every", "500ms",
		"-lookup", "cross-process", "-once")
	pipe("B", procB, &logB)
	if err := procB.Start(); err != nil {
		t.Fatalf("start process B: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- procB.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("process B failed: %v", err)
		}
	case <-time.After(3 * time.Minute):
		procB.Process.Kill()
		<-done
		t.Fatal("process B never completed its lookup")
	}

	logMu.Lock()
	out := logB.String()
	logMu.Unlock()
	if !strings.Contains(out, "lookup verified against ground truth") {
		t.Fatalf("process B exited 0 but never verified its lookup; output:\n%s", out)
	}
	if !strings.Contains(out, "("+eps[0]+")") {
		t.Fatalf("lookup owner was not served by process A (%s); output:\n%s", eps[0], out)
	}
}

// TestClientLookupService is the acceptance test for the 0x05xx client
// serving path: two octopusd processes split a TCP ring, and the TEST
// process — holding no ring slot, running no protocol — drives anonymous
// lookups through one daemon over a persistent client connection,
// verifying every answer against the deterministic ground truth.
func TestClientLookupService(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and builds a binary")
	}
	dir := t.TempDir()
	bin := buildOctopusd(t, dir)

	eps := freePorts(t, 2)
	const n = 12
	const seed = 42
	rc := ringConfig{Seed: seed, CA: eps[0]}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%2])
	}
	cfgPath := filepath.Join(dir, "ring.json")
	raw, _ := json.Marshal(rc)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}

	// Ground truth: replay the deterministic bootstrap on the simulator —
	// identical seed, identical draw order — and read the initial
	// topology's owner for each key.
	sim := simnet.New(seed)
	net0 := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, n+1)
	truth, err := core.BuildNetwork(net0, n, core.DefaultConfig())
	if err != nil {
		t.Fatalf("ground-truth build: %v", err)
	}

	start := func(name string, args ...string) (*exec.Cmd, *logSink) {
		cmd := exec.Command(bin, args...)
		sink := &logSink{}
		sink.attach(t, name, cmd)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start process %s: %v", name, err)
		}
		return cmd, sink
	}
	procA, _ := start("A", "-config", cfgPath, "-listen", eps[0],
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()
	procB, sinkB := start("B", "-config", cfgPath, "-listen", eps[1],
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	defer func() {
		procB.Process.Kill()
		procB.Wait()
	}()
	waitForLog(t, sinkB, "serving client lookups", time.Minute, "service start")

	cc, err := nettransport.DialClient(eps[1], 5*time.Second)
	if err != nil {
		t.Fatalf("dial client: %v", err)
	}
	defer cc.Close()

	keys := []string{"client-key-one", "client-key-two", "client-key-three"}
	deadline := time.Now().Add(2 * time.Minute)
	for i, name := range keys {
		key := id.FromBytes([]byte(name))
		want := truth.Ring.OwnerAmong(key)
		for {
			resp, err := cc.Call(core.ClientLookupReq{Seq: uint64(i + 1), Key: key}, 90*time.Second)
			if err != nil {
				t.Fatalf("client call %d: %v", i, err)
			}
			r, ok := resp.(core.ClientLookupResp)
			if !ok {
				t.Fatalf("client call %d: response type %T", i, resp)
			}
			if r.Seq != uint64(i+1) {
				t.Fatalf("client call %d: seq %d echoed as %d", i, i+1, r.Seq)
			}
			if r.OK {
				if r.Owner.ID != want.ID {
					t.Fatalf("lookup %q resolved to %v, ground truth %v", name, r.Owner, want)
				}
				// Queries may be 0: keys inside the serving node's own
				// successor window resolve locally (§4.3).
				t.Logf("lookup %q verified: owner %s, %d queries + %d dummies, %dµs (+%dµs queued)",
					name, r.Owner.ID, r.Queries, r.Dummies, r.LatencyMicros, r.WaitMicros)
				break
			}
			// Cold ring or transient failure: retry until the deadline.
			if time.Now().After(deadline) {
				t.Fatalf("lookup %q never verified (last: %+v)", name, r)
			}
			time.Sleep(time.Second)
		}
	}
}

// TestStorageFailover is the acceptance test for the replicated key-value
// store (0x06xx): three octopusd processes split a TCP ring, an external
// client stores a value through process B, process C — which serves the
// key's OWNER — is killed outright (no handover), and the client's Get
// still returns the value from a surviving replica once the ring heals and
// re-replication has run.
func TestStorageFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and builds a binary")
	}
	dir := t.TempDir()
	bin := buildOctopusd(t, dir)

	eps := freePorts(t, 3)
	const n = 12
	const seed = 42
	rc := ringConfig{Seed: seed, CA: eps[0]}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%3])
	}
	cfgPath := filepath.Join(dir, "ring.json")
	raw, _ := json.Marshal(rc)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}

	// Ground truth by deterministic replay: pick a key whose owner lives in
	// process C (slot % 3 == 2) while at least one of the owner's next two
	// ring successors — the put-time replicas — lives in A or B, so killing
	// C removes the owner but not every copy.
	sim := simnet.New(seed)
	net0 := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, n+1)
	truth, err := core.BuildNetwork(net0, n, core.DefaultConfig())
	if err != nil {
		t.Fatalf("ground-truth build: %v", err)
	}
	peers := truth.Ring.Peers() // sorted by identifier
	inC := func(a transport.Addr) bool { return int(a)%3 == 2 }
	var keyName string
	var key id.ID
	for i := 0; i < 1000 && keyName == ""; i++ {
		name := fmt.Sprintf("failover-key-%d", i)
		cand := id.FromBytes([]byte(name))
		owner := truth.Ring.OwnerAmong(cand)
		at := -1
		for j, p := range peers {
			if p.ID == owner.ID {
				at = j
				break
			}
		}
		succ1, succ2 := peers[(at+1)%len(peers)], peers[(at+2)%len(peers)]
		if inC(owner.Addr) && (!inC(succ1.Addr) || !inC(succ2.Addr)) {
			keyName, key = name, cand
			t.Logf("chose %q: owner slot %d (C), replicas at slots %d/%d", name, owner.Addr, succ1.Addr, succ2.Addr)
		}
	}
	if keyName == "" {
		t.Fatal("no candidate key places its owner in process C with a surviving replica")
	}

	start := func(name string, args ...string) (*exec.Cmd, *logSink) {
		cmd := exec.Command(bin, args...)
		sink := &logSink{}
		sink.attach(t, name, cmd)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start process %s: %v", name, err)
		}
		return cmd, sink
	}
	common := []string{"-config", cfgPath,
		"-walk-every", "300ms", "-stabilize-every", "500ms", "-store-sync-every", "2s"}
	procA, _ := start("A", append(append([]string{}, common...), "-listen", eps[0])...)
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()
	procB, sinkB := start("B", append(append([]string{}, common...), "-listen", eps[1])...)
	defer func() {
		procB.Process.Kill()
		procB.Wait()
	}()
	procC, _ := start("C", append(append([]string{}, common...), "-listen", eps[2])...)
	defer func() {
		procC.Process.Kill()
		procC.Wait()
	}()
	waitForLog(t, sinkB, "serving key-value storage", time.Minute, "store start")

	cc, err := nettransport.DialClient(eps[1], 5*time.Second)
	if err != nil {
		t.Fatalf("dial client: %v", err)
	}
	defer cc.Close()

	value := []byte("replicated-across-processes")
	putDeadline := time.Now().Add(2 * time.Minute)
	for seq := uint64(1); ; seq++ {
		resp, err := cc.Call(storepkg.ClientPutReq{Seq: seq, Key: key, Value: value}, 90*time.Second)
		if err != nil {
			t.Fatalf("client put: %v", err)
		}
		r, ok := resp.(storepkg.ClientPutResp)
		if !ok {
			t.Fatalf("client put: response type %T", resp)
		}
		if r.OK {
			if r.Replicas < 2 {
				t.Fatalf("put acknowledged with %d replicas, want >= 2", r.Replicas)
			}
			t.Logf("put %q acknowledged: %d replicas, %dµs", keyName, r.Replicas, r.LatencyMicros)
			break
		}
		if time.Now().After(putDeadline) {
			t.Fatalf("put never acknowledged (last: %+v)", r)
		}
		time.Sleep(time.Second) // cold ring: pools still stocking
	}

	// Give the put-time fan-out a moment to land on the replicas, then
	// remove the owner's whole process without any handover.
	time.Sleep(3 * time.Second)
	if err := procC.Process.Kill(); err != nil {
		t.Fatalf("kill C: %v", err)
	}
	procC.Wait()
	t.Log("killed process C (the key owner's process)")

	getDeadline := time.Now().Add(3 * time.Minute)
	for seq := uint64(1000); ; seq++ {
		resp, err := cc.Call(storepkg.ClientGetReq{Seq: seq, Key: key}, 90*time.Second)
		if err != nil {
			if time.Now().After(getDeadline) {
				t.Fatalf("get never found the value after owner death (last call error: %v)", err)
			}
			// The connection may have been poisoned by a slow serve; redial.
			t.Logf("client get: %v (redialing)", err)
			cc.Close()
			if cc, err = nettransport.DialClient(eps[1], 5*time.Second); err != nil {
				t.Fatalf("redial: %v", err)
			}
			continue
		}
		r, ok := resp.(storepkg.ClientGetResp)
		if !ok {
			t.Fatalf("client get: response type %T", resp)
		}
		if r.Found {
			if !bytes.Equal(r.Value, value) {
				t.Fatalf("failover get returned %q, want %q", r.Value, value)
			}
			t.Logf("get %q verified after owner death: %d replicas tried, %dµs", keyName, r.Tried, r.LatencyMicros)
			break
		}
		if time.Now().After(getDeadline) {
			t.Fatalf("get never found the value after owner death (last: %+v)", r)
		}
		time.Sleep(2 * time.Second) // ring still healing around the corpse
	}
}

// TestDynamicJoinLeave is the acceptance test for dynamic membership: a
// third octopusd process joins a live 2-process TCP ring from a single
// contact endpoint (-join, no config file), obtains a CA-issued certificate
// over the wire, becomes the owner an anonymous lookup from another process
// resolves to, and then departs cleanly with both neighbors acknowledging
// its leave.
func TestDynamicJoinLeave(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and builds a binary")
	}
	dir := t.TempDir()
	bin := buildOctopusd(t, dir)

	eps := freePorts(t, 3)
	const n = 12
	rc := ringConfig{Seed: 42, CA: eps[0]}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%2])
	}
	cfgPath := filepath.Join(dir, "ring.json")
	raw, _ := json.Marshal(rc)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}

	// joinerName's hash becomes the joiner's ring identifier, which is
	// exactly the key process B looks up — so B's lookup verifies the
	// joiner is routable, with no seed able to predict it.
	const joinerName = "dynamic-member"

	start := func(name string, args ...string) (*exec.Cmd, *logSink) {
		cmd := exec.Command(bin, args...)
		sink := &logSink{}
		sink.attach(t, name, cmd)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start process %s: %v", name, err)
		}
		return cmd, sink
	}

	procA, _ := start("A", "-config", cfgPath, "-listen", eps[0],
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()

	// B keeps serving after its verification (no -once): the joiner's
	// neighbors must stay up for the leave handshake.
	procB, sinkB := start("B", "-config", cfgPath, "-listen", eps[1],
		"-walk-every", "300ms", "-stabilize-every", "500ms",
		"-lookup", joinerName, "-expect-id", joinerName, "-lookup-retry", "120s")
	defer func() {
		procB.Process.Kill()
		procB.Wait()
	}()

	// Give the static ring a moment to come up, then join through A.
	time.Sleep(2 * time.Second)
	procC, sinkC := start("C", "-join", eps[0], "-listen", eps[2], "-id", joinerName,
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	defer func() {
		procC.Process.Kill()
		procC.Wait()
	}()

	waitForLog(t, sinkC, "certificate issued by the CA over the wire", time.Minute,
		"joiner admission")
	waitForLog(t, sinkC, "joined the ring as", time.Minute, "joiner integration")

	// The anonymous lookup from B must converge on the joiner.
	waitForLog(t, sinkB, "lookup verified against expected owner", 2*time.Minute,
		"lookup of the joined node")

	// Graceful departure: SIGTERM, clean leave, exit 0.
	if err := procC.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal C: %v", err)
	}
	waitForLog(t, sinkC, "left the ring cleanly", time.Minute, "graceful leave")
	done := make(chan error, 1)
	go func() { done <- procC.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("process C exited dirty after SIGTERM: %v\n%s", err, sinkC.String())
		}
	case <-time.After(time.Minute):
		procC.Process.Kill()
		<-done
		t.Fatalf("process C never exited after SIGTERM; log:\n%s", sinkC.String())
	}
}

// parsePromText parses a Prometheus text exposition into its families' HELP
// texts and per-name value sums (labels ignored; histogram series keep their
// _bucket/_sum/_count suffixes as distinct names).
func parsePromText(t *testing.T, body string) (helps map[string]string, sums map[string]float64) {
	t.Helper()
	helps = map[string]string{}
	sums = map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name] = help
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		sums[name] += v
	}
	return helps, sums
}

// TestMetricsEndpoint is the acceptance test for the unified observability
// API: two octopusd processes split a TCP ring, process B serves
// -metrics-listen, the test drives client lookups and a Put/Get through B,
// then scrapes /metrics mid-run and checks that (a) every exported family
// carries its catalog HELP text (emitting a name outside obs's catalog, or
// as the wrong kind, does not compile), (b) the operation counters and
// latency histograms account for the operations just performed, and (c)
// /trace exports only redacted spans — zero trace ids, no initiator/target
// attributes — under the default anonymous mode.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and builds a binary")
	}
	dir := t.TempDir()
	bin := buildOctopusd(t, dir)

	eps := freePorts(t, 3) // two ring endpoints + the metrics listener
	const n = 12
	rc := ringConfig{Seed: 42, CA: eps[0]}
	for i := 0; i < n; i++ {
		rc.Nodes = append(rc.Nodes, eps[i%2])
	}
	cfgPath := filepath.Join(dir, "ring.json")
	raw, _ := json.Marshal(rc)
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}

	start := func(name string, args ...string) (*exec.Cmd, *logSink) {
		cmd := exec.Command(bin, args...)
		sink := &logSink{}
		sink.attach(t, name, cmd)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start process %s: %v", name, err)
		}
		return cmd, sink
	}
	procA, _ := start("A", "-config", cfgPath, "-listen", eps[0],
		"-walk-every", "300ms", "-stabilize-every", "500ms")
	defer func() {
		procA.Process.Kill()
		procA.Wait()
	}()
	procB, sinkB := start("B", "-config", cfgPath, "-listen", eps[1],
		"-walk-every", "300ms", "-stabilize-every", "500ms",
		"-metrics-listen", eps[2], "-trace-buffer", "512")
	defer func() {
		procB.Process.Kill()
		procB.Wait()
	}()
	waitForLog(t, sinkB, "serving metrics on", time.Minute, "metrics listener")
	waitForLog(t, sinkB, "serving client lookups", time.Minute, "service start")

	cc, err := nettransport.DialClient(eps[1], 5*time.Second)
	if err != nil {
		t.Fatalf("dial client: %v", err)
	}
	defer cc.Close()

	// Drive a known number of client operations through B's gateway.
	const lookups = 3
	deadline := time.Now().Add(2 * time.Minute)
	for i := 0; i < lookups; i++ {
		key := id.FromBytes([]byte(fmt.Sprintf("metrics-lookup-%d", i)))
		for {
			resp, err := cc.Call(core.ClientLookupReq{Seq: uint64(i + 1), Key: key}, 90*time.Second)
			if err != nil {
				t.Fatalf("client lookup %d: %v", i, err)
			}
			if r, ok := resp.(core.ClientLookupResp); ok && r.OK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("client lookup %d never succeeded", i)
			}
			time.Sleep(time.Second)
		}
	}
	storeKey := id.FromBytes([]byte("metrics-store-key"))
	for seq := uint64(100); ; seq++ {
		resp, err := cc.Call(storepkg.ClientPutReq{Seq: seq, Key: storeKey, Value: []byte("v")}, 90*time.Second)
		if err != nil {
			t.Fatalf("client put: %v", err)
		}
		if r, ok := resp.(storepkg.ClientPutResp); ok && r.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client put never succeeded")
		}
		time.Sleep(time.Second)
	}
	for seq := uint64(200); ; seq++ {
		resp, err := cc.Call(storepkg.ClientGetReq{Seq: seq, Key: storeKey}, 90*time.Second)
		if err != nil {
			t.Fatalf("client get: %v", err)
		}
		if r, ok := resp.(storepkg.ClientGetResp); ok && r.Found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client get never found the key")
		}
		time.Sleep(time.Second)
	}

	// Scrape the live process. B's lookups can succeed on fallback pairs
	// before any of its walks completes, so scrape about once a second until
	// every minimum below holds or the deadline passes, then report on the
	// last scrape (>=: the ring performs its own protocol work too).
	minimums := []struct {
		name string
		want float64
	}{
		{"octopus_service_lookups_completed_total", lookups},
		{"octopus_service_wait_seconds_count", lookups},
		{"octopus_lookup_latency_seconds_count", lookups},
		{"octopus_lookups_completed_total", lookups},
		{"octopus_store_puts_total", 1},
		{"octopus_store_put_seconds_count", 1},
		{"octopus_store_gets_total", 1},
		{"octopus_store_get_seconds_count", 1},
		{"octopus_transport_bytes_sent_total", 1},
		{"octopus_walks_completed_total", 1},
	}
	short := func(sums map[string]float64) bool {
		for _, m := range minimums {
			if sums[m.name] < m.want {
				return true
			}
		}
		return false
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	var (
		body  []byte
		ct    string
		helps map[string]string
		sums  map[string]float64
	)
	for {
		resp, err := httpc.Get("http://" + eps[2] + "/metrics")
		if err != nil {
			t.Fatalf("scrape /metrics: %v", err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read /metrics: %v", err)
		}
		ct = resp.Header.Get("Content-Type")
		helps, sums = parsePromText(t, string(body))
		if !short(sums) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Second)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}

	// (a) Every exported family takes its HELP text from the catalog; the
	// exporter falls back to the bare name for anything outside it.
	for name, help := range helps {
		if help == name {
			t.Errorf("exported family %s has no catalog HELP text", name)
		}
	}

	// (b) Histogram counts and counters account for the operations driven
	// above.
	for _, m := range minimums {
		if got := sums[m.name]; got < m.want {
			t.Errorf("%s = %v, want >= %v\nscrape:\n%s", m.name, got, m.want, body)
		}
	}
	// The latency histogram must agree with the lookup counters it sits
	// beside: every observation corresponds to a completed or failed lookup.
	histCount := sums["octopus_lookup_latency_seconds_count"]
	counted := sums["octopus_lookups_completed_total"] + sums["octopus_lookups_failed_total"]
	if histCount > counted {
		t.Errorf("lookup latency histogram count %v exceeds completed+failed %v", histCount, counted)
	}

	// (c) The span export is redacted: anonymous mode, zero trace ids, no
	// sensitive attributes.
	tresp, err := httpc.Get("http://" + eps[2] + "/trace")
	if err != nil {
		t.Fatalf("scrape /trace: %v", err)
	}
	var trace struct {
		Mode  string `json:"mode"`
		Spans []struct {
			Trace uint64 `json:"Trace"`
			Name  string `json:"Name"`
			Attrs []struct{ Key, Value string }
		} `json:"spans"`
	}
	err = json.NewDecoder(tresp.Body).Decode(&trace)
	tresp.Body.Close()
	if err != nil {
		t.Fatalf("decode /trace: %v", err)
	}
	if trace.Mode != "anonymous" {
		t.Errorf("trace mode = %q, want anonymous", trace.Mode)
	}
	if len(trace.Spans) == 0 {
		t.Error("no spans exported despite -trace-buffer (lookups were traced)")
	}
	for _, sp := range trace.Spans {
		if sp.Trace != 0 {
			t.Errorf("span %s exported non-zero trace id %#x in anonymous mode", sp.Name, sp.Trace)
		}
		for _, a := range sp.Attrs {
			if obs.SensitiveAttr(a.Key) {
				t.Errorf("span %s exported sensitive attr %q in anonymous mode", sp.Name, a.Key)
			}
		}
	}
}
