package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/octopus-dht/octopus/internal/metrics"
)

// metricValue is one measured metric. Samples is how many observations the
// value summarises (0 for a plain counter reading); Invalid carries the
// reason a value must not be compared, e.g. a tail percentile the window
// was too short for.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Invalid string  `json:"invalid,omitempty"`
}

// wlResult is the outcome of one workload run.
type wlResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Wrong     int                    `json:"wrong"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`

	// tracedRate is a traced run's throughput (ops_per_s for tcp, events per
	// host second for the simulator), kept to compute trace_overhead_frac.
	tracedRate float64
}

func newResult(wl string) *wlResult {
	return &wlResult{Workload: wl, Metrics: map[string]metricValue{}}
}

// unitOf looks a metric's unit up in the spec; an unknown name is a bug in
// the benchmark, not an input error.
func unitOf(name string) string {
	if d, ok := endToEndDef(name); ok {
		return d.Unit
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not in spec.go")
}

func (r *wlResult) set(name string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), Samples: samples}
}

// setTails records the tail-latency metrics from a sample in milliseconds:
// for each, the highest percentile the sample supports, marked invalid when
// that is lower than the one the metric is named after.
func (r *wlResult) setTails(lat *metrics.Sample) {
	for _, want := range []float64{95, 99} {
		name := fmt.Sprintf("lat_p%.0f_ms", want)
		p, ok := tailPercentile(lat.N(), want)
		m := metricValue{Value: lat.Percentile(p), Unit: unitOf(name), Samples: lat.N()}
		if !ok {
			m.Invalid = fmt.Sprintf("%d samples support only p%v", lat.N(), p)
		}
		r.Metrics[name] = m
	}
}

func (r *wlResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish derives the verdict: a run is correct when nothing it attempted
// failed — refusals, timeouts and wrong answers alike.
func (r *wlResult) finish() {
	r.Correct = r.Attempted > 0 && r.Failed == 0
}

// runReport is one invocation's complete output: provenance plus one result
// per workload. It is what -compare reads.
type runReport struct {
	Commit    string      `json:"commit"`
	GoVersion string      `json:"go_version"`
	NProc     int         `json:"nproc"`
	Seed      int64       `json:"seed"`
	Seconds   int         `json:"seconds"`
	Traced    bool        `json:"traced"`
	Results   []*wlResult `json:"results"`
}

func newReport(seed int64, seconds int, traced bool) *runReport {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &runReport{
		Commit:    commit,
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Seed:      seed,
		Seconds:   seconds,
		Traced:    traced,
	}
}

func (rep *runReport) result(wl string) *wlResult {
	for _, r := range rep.Results {
		if r.Workload == wl {
			return r
		}
	}
	return nil
}

// reportPath is where a report is kept between invocations: one file per
// workload (a traced run reads the untraced one to compute
// trace_overhead_frac) and, with wl == "", the all-workloads report that
// -compare takes.
func reportPath(wl string, traced bool) string {
	name := "result-untraced.json"
	if traced {
		name = "result-traced.json"
	}
	return filepath.Join(outDir, wl, name)
}

func (rep *runReport) save(path string) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func loadReport(path string) (*runReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep runReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printText renders one result as an aligned table: whichever metrics the
// run measured, in spec order, end-to-end first.
func (r *wlResult) printText(w io.Writer) {
	verdict := "correct"
	if !r.Correct {
		verdict = fmt.Sprintf("NOT CORRECT (%d wrong answers)", r.Wrong)
	}
	fmt.Fprintf(w, "\n== %s: %d attempted, %d failed, %s\n", r.Workload, r.Attempted, r.Failed, verdict)
	row := func(name string) {
		m, ok := r.Metrics[name]
		if !ok {
			return
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Invalid != "" {
			line += "  INVALID: " + m.Invalid
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, d := range endToEnd {
		row(d.Name)
	}
	for _, d := range perLayer {
		row(d.Name)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// contractLine renders the single-workload result the benchmark driver
// reads from the last line of standard output: every end-to-end contract
// metric for an untraced run, every per-layer metric for a traced one. A
// per-layer metric that does not apply to the workload reads 0.
func (r *wlResult) contractLine(traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	if traced {
		for _, d := range perLayer {
			out.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if !d.Contract {
				continue
			}
			m, ok := r.Metrics[d.Name]
			if !ok || m.Value == 0 {
				return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
			}
			out.Metrics[d.Name] = mv{m.Value, d.Unit}
		}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
