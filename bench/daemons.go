package main

import (
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
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
)

const (
	// ringNodes is the size of the finger ring the tcp workloads run on,
	// split evenly over ringProcs daemons; process 0 also hosts the CA.
	ringNodes = 64
	ringProcs = 2
	// readyPairs is the gateway relay-pool depth that counts as warmed up
	// (the daemon's own -pool-target default).
	readyPairs = 16

	readyTimeout = 90 * time.Second
	traceBuffer  = 65536
)

// outDir holds everything a run leaves behind: the daemon binary, per-daemon
// logs, result files and profiles. It is relative to the repository root,
// which `go run ./bench` has as its working directory.
const outDir = "bench/out"

// buildDaemon compiles cmd/octopusd into outDir and returns the binary's
// path. The go build cache makes repeat calls cheap; the first one in a
// fresh checkout is the slow part of set-up.
func buildDaemon() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("bench must run from the repository root (go run ./bench): %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "octopusd"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/octopusd")
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/octopusd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running octopusd process.
type daemon struct {
	cmd     *exec.Cmd
	logPath string
	ring    string // ring endpoint it listens on
	metrics string // -metrics-listen endpoint
	// exited is closed once the process has ended and been waited for.
	exited chan struct{}
}

// ring is a set of octopusd processes forming one deployment.
type ring struct {
	daemons []*daemon
	// gateway is the daemon the load is driven through (the last one) and
	// gatewaySlot the ring slot of its first local node, which is the node
	// that serves client requests.
	gateway     *daemon
	gatewaySlot int
	http        *http.Client
}

// live tracks every started ring so that any exit path — error return,
// signal, panic — can kill the daemons. Once closed, no further ring starts:
// a signal that lands while set-up is spawning must not leave daemons behind.
var live struct {
	sync.Mutex
	rings  map[*ring]bool
	closed bool
}

// killAllRings stops every daemon still running and refuses new ones. Safe
// to call repeatedly and from the signal-handler goroutine.
func killAllRings() {
	live.Lock()
	live.closed = true
	rings := make([]*ring, 0, len(live.rings))
	for r := range live.rings {
		rings = append(rings, r)
	}
	live.Unlock()
	for _, r := range rings {
		r.stop()
	}
}

// freeEndpoints reserves k distinct kernel-assigned loopback ports. The
// listeners are closed before the daemons bind them, which is racy in
// principle; the kernel does not hand an ephemeral port out again that fast.
func freeEndpoints(k int) ([]string, error) {
	eps := make([]string, k)
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range eps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		lns = append(lns, ln)
		eps[i] = ln.Addr().String()
	}
	return eps, nil
}

// startRing writes a ring configuration into dir and spawns the daemons with
// their default flags plus the observability endpoints the benchmark reads.
// Slots alternate between the processes, so every lookup crosses the
// sockets. Tracing is a daemon start-up flag, hence a parameter here.
func startRing(bin, dir string, seed int64, traced bool) (*ring, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	eps, err := freeEndpoints(2 * ringProcs)
	if err != nil {
		return nil, err
	}
	ringEPs, metricEPs := eps[:ringProcs], eps[ringProcs:]
	cfg := struct {
		Seed  int64    `json:"seed"`
		Nodes []string `json:"nodes"`
		CA    string   `json:"ca"`
	}{Seed: seed, CA: ringEPs[0]}
	for i := 0; i < ringNodes; i++ {
		cfg.Nodes = append(cfg.Nodes, ringEPs[i%ringProcs])
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "ring.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return nil, err
	}

	// The registry lock is held while spawning, so killAllRings sees either
	// no daemon of this ring or all of them.
	live.Lock()
	defer live.Unlock()
	if live.closed {
		return nil, fmt.Errorf("benchmark is shutting down")
	}
	r := &ring{http: &http.Client{Timeout: 10 * time.Second}}
	trace := "0"
	if traced {
		trace = strconv.Itoa(traceBuffer)
	}
	for i := 0; i < ringProcs; i++ {
		logPath := filepath.Join(dir, fmt.Sprintf("daemon-%d.log", i))
		logf, err := os.Create(logPath)
		if err != nil {
			r.kill()
			return nil, err
		}
		cmd := exec.Command(bin, "-config", cfgPath, "-listen", ringEPs[i],
			"-metrics-listen", metricEPs[i], "-trace-buffer", trace)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Own process group, so a terminal's Ctrl-C reaches only the
		// benchmark, which then stops the daemons itself; Pdeathsig covers
		// the benchmark being killed outright.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		d := &daemon{cmd: cmd, logPath: logPath, ring: ringEPs[i], metrics: metricEPs[i], exited: make(chan struct{})}
		if err := cmd.Start(); err != nil {
			logf.Close()
			r.kill()
			return nil, fmt.Errorf("start daemon %d: %w", i, err)
		}
		go func() {
			_ = cmd.Wait() // "signal: killed" is the expected outcome
			logf.Close()
			close(d.exited)
		}()
		r.daemons = append(r.daemons, d)
		// One daemon at a time: a daemon whose peers are not listening yet
		// loses its first walks to RPC timeouts, which made warm-up take
		// either half a second or three and a half.
		if err := r.waitUp(i, d); err != nil {
			r.kill()
			return nil, err
		}
	}
	r.gateway = r.daemons[ringProcs-1]
	r.gatewaySlot = ringProcs - 1 // first slot whose endpoint is the last process
	if live.rings == nil {
		live.rings = map[*ring]bool{}
	}
	live.rings[r] = true
	return r, nil
}

// waitUp blocks until a freshly started daemon serves its metrics page,
// which it does only once its nodes are built and listening.
func (r *ring) waitUp(i int, d *daemon) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		if exited := r.exited(); exited != "" {
			return fmt.Errorf("%s\n%s", exited, r.logTails())
		}
		if _, err := r.get(d, "/metrics"); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("daemon %d did not come up within %v\n%s", i, readyTimeout, r.logTails())
}

// stop takes the ring out of the registry and kills it; a second call, or a
// call racing killAllRings, does nothing.
func (r *ring) stop() {
	live.Lock()
	registered := live.rings[r]
	delete(live.rings, r)
	live.Unlock()
	if registered {
		r.kill()
	}
}

// kill ends the daemons' process groups and waits for them.
func (r *ring) kill() {
	for _, d := range r.daemons {
		// Negative pid: the whole group, should a daemon ever fork.
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, d := range r.daemons {
		<-d.exited
	}
}

func (r *ring) pids() []int {
	pids := make([]int, len(r.daemons))
	for i, d := range r.daemons {
		pids[i] = d.cmd.Process.Pid
	}
	return pids
}

// get fetches one page of a daemon's observability listener.
func (r *ring) get(d *daemon, path string) ([]byte, error) {
	resp, err := r.http.Get("http://" + d.metrics + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", d.metrics, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads /metrics from every daemon, in daemon order.
func (r *ring) scrape() ([]promSample, error) {
	out := make([]promSample, len(r.daemons))
	for i, d := range r.daemons {
		body, err := r.get(d, "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape daemon %d: %w", i, err)
		}
		if out[i], err = parseProm(string(body)); err != nil {
			return nil, fmt.Errorf("scrape daemon %d: %w", i, err)
		}
	}
	return out, nil
}

// gatewayPairs reads the serving node's relay-pool depth from a scrape.
func (r *ring) gatewayPairs(scr []promSample) float64 {
	key := fmt.Sprintf(`octopus_pool_pairs{node="%d"}`, r.gatewaySlot)
	return scr[len(scr)-1].series[key]
}

// cpu sums the CPU time the daemons have consumed so far.
func (r *ring) cpu() (time.Duration, error) {
	var total time.Duration
	for _, pid := range r.pids() {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// hwm sums the daemons' peak resident sets, in bytes.
func (r *ring) hwm() (uint64, error) {
	var total uint64
	for _, pid := range r.pids() {
		m, err := procHWM(pid)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// waitReady blocks until every daemon answers on its metrics listener and
// the gateway node's relay pool is stocked. It fails loudly — with the tail
// of the daemon logs — instead of hanging.
func (r *ring) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	var last string
	for time.Now().Before(deadline) {
		if exited := r.exited(); exited != "" {
			return fmt.Errorf("%s\n%s", exited, r.logTails())
		}
		scr, err := r.scrape()
		switch {
		case err != nil:
			last = err.Error()
		case r.gatewayPairs(scr) >= readyPairs:
			return nil
		default:
			last = fmt.Sprintf("gateway pool at %v/%d pairs", r.gatewayPairs(scr), readyPairs)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("ring not ready after %v (%s)\n%s", readyTimeout, last, r.logTails())
}

// exited reports a daemon that is no longer running ("" when all are). A
// daemon never exits on its own during a run, so this is always a failure.
func (r *ring) exited() string {
	for i, d := range r.daemons {
		select {
		case <-d.exited:
			return fmt.Sprintf("daemon %d exited early: %v", i, d.cmd.ProcessState)
		default:
		}
	}
	return ""
}

// logTails returns the last lines of every daemon log, for error messages.
func (r *ring) logTails() string {
	var b strings.Builder
	for i, d := range r.daemons {
		raw, err := os.ReadFile(d.logPath)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) > 15 {
			lines = lines[len(lines)-15:]
		}
		fmt.Fprintf(&b, "--- daemon %d log tail (%s)\n%s\n", i, d.logPath, strings.Join(lines, "\n"))
	}
	return b.String()
}

// traceDump is the JSON document a daemon serves on /trace.
type traceDump struct {
	Dropped uint64     `json:"dropped"`
	Spans   []obs.Span `json:"spans"`
}

// traceCursor turns repeated dumps of a daemon's bounded span buffer into a
// stream: the buffer keeps record order and counts what it overwrote, so the
// spans recorded since the previous poll are the tail of each dump.
type traceCursor struct {
	seen uint64 // spans recorded by the daemon as of the previous poll
	lost uint64 // spans overwritten between polls, never seen
}

// advance returns the spans of dump not returned by an earlier call.
func (c *traceCursor) advance(dump traceDump) []obs.Span {
	total := dump.Dropped + uint64(len(dump.Spans))
	fresh := total - c.seen
	c.seen = total
	if fresh > uint64(len(dump.Spans)) {
		c.lost += fresh - uint64(len(dump.Spans))
		fresh = uint64(len(dump.Spans))
	}
	return dump.Spans[uint64(len(dump.Spans))-fresh:]
}

// pollTrace fetches one daemon's span buffer.
func (r *ring) pollTrace(d *daemon) (traceDump, error) {
	var dump traceDump
	body, err := r.get(d, "/trace")
	if err != nil {
		return dump, err
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		return dump, fmt.Errorf("decode /trace: %w", err)
	}
	return dump, nil
}
