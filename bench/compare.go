package main

import (
	"fmt"
	"io"
)

// worsening returns how much worse b is than a for a metric, as a share of
// a (or as a plain difference for an absolute bound): positive is worse,
// whatever the metric's direction.
func worsening(def metricDef, a, b float64) float64 {
	d := b - a
	if def.Better == "higher" {
		d = a - b
	}
	if def.Absolute {
		return d
	}
	return ratio(d, a)
}

// compareReports prints, per workload and end-to-end metric, how far the
// second report is from the first against the metric's bound, and returns
// how many pairs exceed it in either direction. It is used to show that two
// sets of runs of one commit agree, so a large improvement is as much a
// finding as a regression.
func compareReports(w io.Writer, a, b *runReport) (exceeded int) {
	fmt.Fprintf(w, "a: commit %s seed %d %d s   b: commit %s seed %d %d s\n",
		a.Commit, a.Seed, a.Seconds, b.Commit, b.Seed, b.Seconds)
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range workloads {
		ra, rb := a.result(wl.Name), b.result(wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-20s missing from one of the reports\n", wl.Name)
			exceeded++
			continue
		}
		for _, def := range endToEnd {
			ma, oka := ra.Metrics[def.Name]
			mb, okb := rb.Metrics[def.Name]
			if !oka && !okb {
				continue // does not apply to this workload
			}
			verdict := ""
			wr := worsening(def, ma.Value, mb.Value)
			switch {
			case oka != okb:
				verdict = "  MISSING from one report"
				exceeded++
			case ma.Invalid != "" || mb.Invalid != "":
				verdict = "  not compared: too few samples"
			case wr > def.Bound || wr < -def.Bound:
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %+9.4f %7.3f%s\n",
				wl.Name, def.Name, ma.Value, mb.Value, wr, def.Bound, verdict)
		}
	}
	return exceeded
}

// compareFiles is the -compare mode; it returns the process exit code.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	if n := compareReports(w, a, b); n > 0 {
		fmt.Fprintf(w, "%d workload x metric pairs differ by more than their bound\n", n)
		return 1
	}
	fmt.Fprintln(w, "all workload x metric pairs agree within their bounds")
	return 0
}
