package obs

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorSnapshotSortedAndNilSafe(t *testing.T) {
	var nilC *Collector
	if s := nilC.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil collector produced samples: %+v", s)
	}
	nilC.Register(FuncSource(func(*Snapshot) {})) // must not panic

	c := NewCollector()
	c.Register(FuncSource(func(s *Snapshot) {
		s.AddCounter(TraceSpansDropped, 1)
		s.AddCounter(LookupsStarted, 2, L("node", "9"))
		s.AddCounter(LookupsStarted, 3, L("node", "10"))
		s.AddGauge(PoolPairs, 4, L("node", "1"))
	}))
	s := c.Snapshot()
	if len(s.Counters) != 3 || len(s.Gauges) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", s)
	}
	if s.Counters[0].Name != "octopus_lookups_started_total" || s.Counters[2].Name != "octopus_trace_spans_dropped_total" {
		t.Errorf("counters not sorted by name: %+v", s.Counters)
	}
	if got := s.CounterSum(LookupsStarted); got != 5 {
		t.Errorf("CounterSum = %v, want 5", got)
	}
	if got := s.GaugeSum(PoolPairs); got != 4 {
		t.Errorf("GaugeSum = %v, want 4", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram(LookupLatency, []float64{0.1, 1, 10})
	var nilH *Histogram
	nilH.Observe(1) // nil-safe
	nilH.ObserveDuration(time.Second)

	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50) // beyond last bound: only +Inf
	var s Snapshot
	h.CollectObs(&s)
	if len(s.Histograms) != 1 {
		t.Fatalf("no histogram emitted")
	}
	d := s.Histograms[0]
	wantCum := []uint64{1, 2, 3}
	for i, b := range d.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%v count=%d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
	if d.Count != 4 {
		t.Errorf("count=%d, want 4", d.Count)
	}
	if d.Sum != 55.55 {
		t.Errorf("sum=%v, want 55.55", d.Sum)
	}
	count, sum := s.HistogramTotal(LookupLatency)
	if count != 4 || sum != 55.55 {
		t.Errorf("HistogramTotal = %d, %v", count, sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LookupLatency, LatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	var s Snapshot
	h.CollectObs(&s)
	if s.Histograms[0].Count != 8000 {
		t.Errorf("count=%d, want 8000", s.Histograms[0].Count)
	}
	if got := s.Histograms[0].Sum; got != 2000 {
		t.Errorf("sum=%v, want 2000", got)
	}
}

func TestWriteTextFormat(t *testing.T) {
	c := NewCollector()
	h := NewHistogram(LookupLatency, []float64{0.5, 1}, L("node", "3"))
	h.Observe(0.25)
	h.Observe(2)
	c.Register(h)
	c.Register(FuncSource(func(s *Snapshot) {
		s.AddCounter(LookupsStarted, 7, L("node", "3"))
		s.AddGauge(PoolPairs, 2, L("node", "3"))
	}))
	var b strings.Builder
	if err := WriteText(&b, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE octopus_lookups_started_total counter",
		`octopus_lookups_started_total{node="3"} 7`,
		"# TYPE octopus_pool_pairs gauge",
		"# TYPE octopus_lookup_latency_seconds histogram",
		`octopus_lookup_latency_seconds_bucket{node="3",le="0.5"} 1`,
		`octopus_lookup_latency_seconds_bucket{node="3",le="+Inf"} 2`,
		`octopus_lookup_latency_seconds_sum{node="3"} 2.25`,
		`octopus_lookup_latency_seconds_count{node="3"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered text missing %q:\n%s", want, out)
		}
	}
	// HELP text comes from the catalog for registered names.
	if !strings.Contains(out, "# HELP octopus_pool_pairs Relay pairs currently available") {
		t.Errorf("catalog help text not used:\n%s", out)
	}
}

func TestTracerRedaction(t *testing.T) {
	span := Span{
		Trace: 0x2a0003, // low bits encode the initiator address
		Name:  "relay.forward",
		Node:  "5",
		Start: time.Second,
		End:   2 * time.Second,
		Attrs: []Attr{A("from", "3"), A("next", "7"), A("depth", "2")},
	}

	anon := NewTracer(8, RedactAnonymous)
	anon.Record(span)
	got := anon.Spans()[0]
	if got.Trace != 0 {
		t.Errorf("anonymous mode kept trace id %#x", got.Trace)
	}
	for _, a := range got.Attrs {
		if SensitiveAttr(a.Key) {
			t.Errorf("anonymous mode kept sensitive attr %q", a.Key)
		}
	}
	if len(got.Attrs) != 1 || got.Attrs[0].Key != "depth" {
		t.Errorf("non-sensitive attrs mangled: %+v", got.Attrs)
	}
	if got.Start != span.Start || got.End != span.End || got.Node != "5" {
		t.Errorf("redaction must keep timing and exporter identity: %+v", got)
	}

	raw := NewTracer(8, RedactOff)
	raw.Record(span)
	if g := raw.Spans()[0]; g.Trace != span.Trace || len(g.Attrs) != 3 {
		t.Errorf("RedactOff altered the span: %+v", g)
	}
}

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(3, RedactOff)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Trace: uint64(i + 1)})
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("len=%d, want 3", len(spans))
	}
	for i, want := range []uint64{3, 4, 5} {
		if spans[i].Trace != want {
			t.Errorf("spans[%d].Trace=%d, want %d (oldest-first order)", i, spans[i].Trace, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped=%d, want 2", tr.Dropped())
	}

	var nilT *Tracer
	nilT.Record(Span{}) // nil-safe
	if nilT.Spans() != nil || nilT.Dropped() != 0 {
		t.Error("nil tracer must be inert")
	}
	if nilT.Mode() != RedactAnonymous {
		t.Error("nil tracer must report the redacting mode")
	}
}

// goldenCollector is the fixture behind testdata/writetext.golden: sources
// registered out of name order, series that tie on name and labels (the sort
// must keep them in the order they were added), label values that need each
// escape and values that need none, names inside and outside the catalog,
// and histograms with and without labels.
func goldenCollector() *Collector {
	c := NewCollector()
	lat := NewHistogram(LookupLatency, []float64{0.001, 0.5, 1}, L("node", `gw"1\`))
	for _, v := range []float64{0.0005, 0.25, 0.75, 3} {
		lat.Observe(v)
	}
	c.Register(lat)
	bare := NewHistogram(HistogramDef{"octopus_unlisted_seconds"}, []float64{2})
	bare.Observe(1.5)
	c.Register(bare)
	c.Register(FuncSource(func(s *Snapshot) {
		s.AddCounter(ServiceRejected, 3, L("reason", "queue"))
		s.AddCounter(LookupsStarted, 7, L("node", "10"))
		s.AddCounter(LookupsStarted, 8, L("node", "9"))
		s.AddCounter(LookupsStarted, 1, L("node", "9"))
		s.AddCounter(LookupsStarted, 2, L("node", "line\nbreak"), L("x", `back\slash "quoted"`))
		s.AddCounter(LookupsStarted, 4)
		s.AddGauge(PoolPairs, 2.5, L("node", ""))
		s.AddGauge(PoolPairs, 1.5e-7, L("node", "9"), L("a", "\\\n\""))
		s.AddGauge(PoolPairs, 12345.678, L("node", "9"))
	}))
	c.Register(FuncSource(func(s *Snapshot) {
		s.AddGauge(TierEntries, 64, L("tier", "onehop"))
		s.AddCounter(CounterDef{"octopus_a_unlisted_total"}, 1, L("k", `\n`))
		s.AddCounter(LookupsStarted, 5, L("node", "9"))
	}))
	return c
}

// TestWriteTextGolden pins the exporter's output, byte for byte, to
// testdata/writetext.golden, which was captured from WriteText as it stood
// before it built its escaper once and computed each sort key once.
func TestWriteTextGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/writetext.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteText(&b, goldenCollector().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("WriteText differs from testdata/writetext.golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
