package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestNormalizeArgs(t *testing.T) {
	cases := []struct{ in, want []string }{
		{[]string{"--workload", "sim-load-1k", "--seed", "3", "--seconds", "15", "--trace", "1"},
			[]string{"--workload", "sim-load-1k", "--seed", "3", "--seconds", "15", "--trace=1"}},
		{[]string{"--trace", "0", "--seed", "3"}, []string{"--trace=0", "--seed", "3"}},
		{[]string{"-trace"}, []string{"-trace"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "-seed", "2"}},
		{[]string{"-trace=1"}, []string{"-trace=1"}},
	}
	for _, c := range cases {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the driver's contract file in step with
// spec.go: same workloads, same gated end-to-end metrics with the same units,
// directions and bounds, same per-layer metrics.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}

	var wantWL, gotWL []string
	for _, w := range workloads {
		wantWL = append(wantWL, w.Name)
	}
	for _, w := range doc.Workloads {
		gotWL = append(gotWL, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(gotWL, wantWL) {
		t.Errorf("workloads = %v, want %v", gotWL, wantWL)
	}

	var wantE2E []metric
	hasSetup := false
	for _, m := range endToEnd {
		if m.Contract {
			wantE2E = append(wantE2E, metric{m.Name, m.Unit, m.Better, m.Bound})
			hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
			if m.Bound <= 0 || m.Bound > 0.25 || m.Absolute {
				t.Errorf("%s: a contract bound is a ratio in (0, 0.25], got %v", m.Name, m.Bound)
			}
		}
	}
	if !hasSetup {
		t.Error("the contract requires a setup_s metric in seconds, lower is better")
	}
	if !reflect.DeepEqual(doc.EndToEnd, wantE2E) {
		t.Errorf("end_to_end = %+v\nwant %+v", doc.EndToEnd, wantE2E)
	}

	var wantPL []metric
	seen := map[string]bool{}
	for _, m := range perLayer {
		wantPL = append(wantPL, metric{m.Name, m.Unit, m.Better, 0})
		if seen[m.Name] {
			t.Errorf("per-layer metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if _, clash := endToEndDef(m.Name); clash {
			t.Errorf("%s is both an end-to-end and a per-layer metric", m.Name)
		}
	}
	if !reflect.DeepEqual(doc.PerLayer, wantPL) {
		t.Errorf("per_layer differs from spec.go:\n got %+v\nwant %+v", doc.PerLayer, wantPL)
	}
}

func sampleReport(opsPerS, p50 float64) *runReport {
	rep := &runReport{Commit: "c", Seed: 1, Seconds: 40}
	for _, w := range workloads {
		r := newResult(w.Name)
		r.set("ops_per_s", opsPerS, 100)
		r.set("lat_p50_ms", p50, 100)
		r.set("fail_frac", 0, 100)
		rep.Results = append(rep.Results, r)
	}
	return rep
}

func TestCompareReports(t *testing.T) {
	base := sampleReport(100, 50)
	var out bytes.Buffer
	if n := compareReports(&out, base, sampleReport(100, 50)); n != 0 {
		t.Errorf("identical reports: %d pairs exceed, want 0\n%s", n, out.String())
	}

	opsBound, _ := endToEndDef("ops_per_s")
	p50Bound, _ := endToEndDef("lat_p50_ms")
	// Throughput down and latency up, each just past its bound: both are
	// "worse", whatever the metric's direction.
	worse := sampleReport(100*(1-opsBound.Bound-0.01), 50*(1+p50Bound.Bound+0.01))
	out.Reset()
	if n := compareReports(&out, base, worse); n != 2*len(workloads) {
		t.Errorf("worse report: %d pairs exceed, want %d\n%s", n, 2*len(workloads), out.String())
	}
	// Inside the bounds: no finding.
	near := sampleReport(100*(1-opsBound.Bound/2), 50*(1+p50Bound.Bound/2))
	out.Reset()
	if n := compareReports(&out, base, near); n != 0 {
		t.Errorf("report inside the bounds: %d pairs exceed, want 0\n%s", n, out.String())
	}

	if w := worsening(opsBound, 100, 90); w <= 0 {
		t.Errorf("lower throughput must read as worse, got %v", w)
	}
	if w := worsening(p50Bound, 50, 45); w >= 0 {
		t.Errorf("lower latency must read as better, got %v", w)
	}
	failBound, _ := endToEndDef("fail_frac")
	if w := worsening(failBound, 0, 0.01); w != 0.01 {
		t.Errorf("fail_frac worsening is an absolute difference, got %v", w)
	}
}

func TestContractLineRequiresEveryMetric(t *testing.T) {
	r := newResult(wlUniform)
	r.Attempted = 10
	r.finish()
	if _, err := r.contractLine(false); err == nil {
		t.Error("a result with no end-to-end metrics produced a contract line")
	}
	for _, m := range endToEnd {
		if m.Contract {
			r.set(m.Name, 1.5, 1)
		}
	}
	line, err := r.contractLine(false)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Attempted != 10 || doc.Failed != 0 || doc.Metrics["setup_s"].Unit != "s" {
		t.Errorf("unexpected contract line %s", line)
	}
	// The traced form carries every per-layer metric, measured or not.
	line, err = r.contractLine(true)
	if err != nil {
		t.Fatal(err)
	}
	doc.Metrics = nil
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != len(perLayer) {
		t.Errorf("traced contract line has %d metrics, want %d", len(doc.Metrics), len(perLayer))
	}
}

func TestOneInHoldsItsShare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := oneIn{n: 5}
	positions := map[int]bool{}
	for block := 0; block < 200; block++ {
		hits := 0
		for i := 0; i < 5; i++ {
			if o.next(rng) {
				hits++
				positions[i] = true
			}
		}
		if hits != 1 {
			t.Fatalf("block %d: %d hits, want exactly 1", block, hits)
		}
	}
	if len(positions) != 5 {
		t.Errorf("the hit landed on positions %v only; it should move around the block", positions)
	}
}
