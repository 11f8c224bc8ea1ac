package main

import "testing"

const scrapeA = `# HELP octopus_pool_pairs Relay pairs currently available in the managed pool.
# TYPE octopus_pool_pairs gauge
octopus_pool_pairs{node="1"} 16
octopus_pool_pairs{node="3"} 9
# TYPE octopus_walks_started_total counter
octopus_walks_started_total{node="1"} 100
octopus_walks_started_total{node="3"} 50
# TYPE octopus_lookup_latency_seconds histogram
octopus_lookup_latency_seconds_bucket{node="1",le="0.1"} 4
octopus_lookup_latency_seconds_bucket{node="1",le="+Inf"} 7
octopus_lookup_latency_seconds_sum{node="1"} 1.25
octopus_lookup_latency_seconds_count{node="1"} 7
octopus_transport_bytes_sent_total{backend="net"} 1e+06

`

const scrapeB = `octopus_pool_pairs{node="1"} 2
octopus_walks_started_total{node="1"} 160
octopus_walks_started_total{node="3"} 55
octopus_transport_bytes_sent_total{backend="net"} 1.5e+06
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(scrapeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.series[`octopus_pool_pairs{node="1"}`]; got != 16 {
		t.Errorf("labelled series = %v, want 16", got)
	}
	if got := p.sum("octopus_pool_pairs"); got != 25 {
		t.Errorf("sum over labels = %v, want 25", got)
	}
	// Histogram series keep their suffix as part of the name.
	if got := p.sum("octopus_lookup_latency_seconds" + "_count"); got != 7 {
		t.Errorf("histogram count = %v, want 7", got)
	}
	if got := p.sum("octopus_lookup_latency_seconds" + "_sum"); got != 1.25 {
		t.Errorf("histogram sum = %v, want 1.25", got)
	}
	if got := p.sum("octopus_transport_bytes_sent_total"); got != 1e6 {
		t.Errorf("exponent value = %v, want 1e6", got)
	}
	if got := p.sum("octopus_never_exported_total"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, body := range []string{"octopus_pool_pairs", "octopus_pool_pairs{node=\"1\"} sixteen"} {
		if _, err := parseProm(body); err == nil {
			t.Errorf("parseProm(%q) succeeded, want an error", body)
		}
	}
}

func TestPromDelta(t *testing.T) {
	a, err := parseProm(scrapeA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(scrapeB)
	if err != nil {
		t.Fatal(err)
	}
	// Two daemons that happened to export the same pages.
	before, after := []promSample{a, a}, []promSample{b, b}
	d, err := promDelta(before, after, "octopus_walks_started_total")
	if err != nil {
		t.Fatal(err)
	}
	if d != 2*(215-150) {
		t.Errorf("delta = %v, want %v", d, 2*(215-150))
	}
	// A counter that went backwards means a daemon restarted mid-window.
	if _, err := promDelta(after, before, "octopus_walks_started_total"); err == nil {
		t.Error("backwards counter was not reported")
	}
}
