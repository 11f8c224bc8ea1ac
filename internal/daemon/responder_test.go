package daemon

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport/transporttest"
)

// startMetrics brings up a daemon's metrics listener alone, on a
// kernel-assigned loopback port, with tracing on.
func startMetrics(t *testing.T) (*daemon, string) {
	t.Helper()
	d := &daemon{opts: Options{MetricsListen: "127.0.0.1:0"}, collector: obs.NewCollector()}
	d.tracer = obs.NewTracer(8, obs.RedactAnonymous)
	d.collector.Register(d.tracer)
	if err := d.serveMetrics(); err != nil {
		t.Fatalf("serveMetrics: %v", err)
	}
	t.Cleanup(d.stop)
	return d, d.metrics.ln.Addr().String()
}

// rawExchange writes req on a fresh connection, half-closes it, and returns
// everything the listener sends back before it closes the connection.
func rawExchange(t *testing.T, addr, req string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.Write([]byte(req)) // may fail once the listener hangs up on an oversized head
	c.(*net.TCPConn).CloseWrite()
	resp, err := io.ReadAll(c)
	if err != nil && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("read response to %.40q: %v", req, err)
	}
	return string(resp)
}

func TestResponderRoutes(t *testing.T) {
	_, addr := startMetrics(t)
	const text = "text/plain; charset=utf-8"
	for _, tc := range []struct {
		req, status, ctype, body string
	}{
		{"GET /metrics HTTP/1.1\r\nHost: x\r\nUser-Agent: t\r\n\r\n", "200 OK", "text/plain; version=0.0.4; charset=utf-8", ""},
		{"GET /metrics?x=1 HTTP/1.1\r\n\r\n", "200 OK", "text/plain; version=0.0.4; charset=utf-8", ""},
		{"GET /trace HTTP/1.0\n\n", "200 OK", "application/json", `{"mode":"anonymous","dropped":0,"spans":[]}` + "\n"},
		{"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "405 Method Not Allowed", text, "405 Method Not Allowed\n"},
		{"GET /nope HTTP/1.1\r\n\r\n", "404 Not Found", text, "404 Not Found\n"},
		{"GET /metricsx HTTP/1.1\r\n\r\n", "404 Not Found", text, "404 Not Found\n"},
	} {
		got := rawExchange(t, addr, tc.req)
		head, body, ok := strings.Cut(got, "\r\n\r\n")
		if !ok {
			t.Errorf("%.30q: no response head in %q", tc.req, got)
			continue
		}
		if tc.ctype == "text/plain; version=0.0.4; charset=utf-8" {
			if !strings.Contains(body, "# TYPE octopus_trace_spans gauge") {
				t.Errorf("%.30q: /metrics body has no tracer family:\n%s", tc.req, body)
			}
			tc.body = body
		}
		want := "HTTP/1.1 " + tc.status + "\r\nContent-Type: " + tc.ctype +
			"\r\nContent-Length: " + strconv.Itoa(len(tc.body)) + "\r\nConnection: close"
		if head != want || body != tc.body {
			t.Errorf("%.30q:\n got %q\n     %q\nwant %q\n     %q", tc.req, head, body, want, tc.body)
		}
		if strings.Contains(got, "nope") || strings.Contains(got, "metricsx") {
			t.Errorf("%.30q: the response echoes the request: %q", tc.req, got)
		}
	}

	// net/http's client, as bench and the multi-process tests use it, reads
	// the same page.
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("http GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "octopus_trace_spans 0") {
		t.Errorf("http GET /metrics: %s\n%s", resp.Status, body)
	}
}

// TestResponderRefusesHostileHeads: a head that is malformed or over its
// bounds is closed without a response, and the listener serves the next
// scrape as before.
func TestResponderRefusesHostileHeads(t *testing.T) {
	_, addr := startMetrics(t)
	for name, req := range map[string]string{
		"64 KiB with no newline":    strings.Repeat("G", 64<<10),
		"request line over 4 KiB":   "GET /" + strings.Repeat("m", 4<<10) + " HTTP/1.1\r\n\r\n",
		"head over 8 KiB":           "GET /metrics HTTP/1.1\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 90)+"\r\n", 100) + "\r\n",
		"no protocol":               "GET /metrics\r\n\r\n",
		"target not a path":         "GET metrics HTTP/1.1\r\n\r\n",
		"not HTTP/1":                "GET /metrics SPDY/3\r\n\r\n",
		"malformed header":          "GET /metrics HTTP/1.1\r\nno colon here\r\n\r\n",
		"head cut short":            "GET /metrics HTTP/1.1\r\nHost: x\r\n", // then EOF
		"empty method":              " /metrics HTTP/1.1\r\n\r\n",
		"request line of only text": "hello\r\n\r\n",
	} {
		if got := rawExchange(t, addr, req); got != "" {
			t.Errorf("%s: got a response %.60q, want none", name, got)
		}
		if got := rawExchange(t, addr, "GET /metrics HTTP/1.1\r\n\r\n"); !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") {
			t.Errorf("scrape after %s: %.60q", name, got)
		}
	}
}

// TestResponderIdleConnections: connections that hold no request delay
// neither a concurrent scrape nor stop, and stop leaves no goroutine behind.
func TestResponderIdleConnections(t *testing.T) {
	before := runtime.NumGoroutine()
	d, addr := startMetrics(t)
	var idle []net.Conn
	for range 8 {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		idle = append(idle, c)
	}
	start := time.Now()
	if got := rawExchange(t, addr, "GET /metrics HTTP/1.1\r\n\r\n"); !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("scrape beside idle connections: %.60q", got)
	}
	if took := time.Since(start); took > exchangeTimeout/2 {
		t.Errorf("a scrape beside idle connections took %v", took)
	}
	waitFor(t, 5*time.Second, "the idle connections to be accepted", func() bool {
		d.metrics.mu.Lock()
		defer d.metrics.mu.Unlock()
		return len(d.metrics.conns) == len(idle)
	})

	start = time.Now()
	d.stop()
	if took := time.Since(start); took > time.Second {
		t.Errorf("stop with %d idle connections took %v", len(idle), took)
	}
	for i, c := range idle {
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if got, err := io.ReadAll(c); len(got) != 0 || err != nil && !strings.Contains(err.Error(), "reset") {
			t.Errorf("idle connection %d after stop: read %q, %v; want a close with no response", i, got, err)
		}
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("the listener still accepts after stop")
	}
	transporttest.CheckGoroutineLeak(t, before)
}
