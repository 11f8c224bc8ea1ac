package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scrape of a daemon's /metrics page: every series keyed
// by its full text (name plus rendered labels), and the per-name sums over
// labels that most per-layer ratios want.
type promSample struct {
	series map[string]float64
	sums   map[string]float64
}

// parseProm parses the Prometheus text exposition format as internal/obs
// writes it: comment lines skipped, one "name{labels} value" per line.
// Histogram series keep their _bucket/_sum/_count suffixes as names.
func parseProm(body string) (promSample, error) {
	p := promSample{series: map[string]float64{}, sums: map[string]float64{}}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return p, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return p, fmt.Errorf("metrics line %q: %w", line, err)
		}
		key := line[:sp]
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		p.series[key] += v
		p.sums[name] += v
	}
	return p, nil
}

// sum returns the named family summed over every label set.
func (p promSample) sum(name string) float64 { return p.sums[name] }

// delta returns after − before for a counter summed over labels, and over
// several scraped processes. A counter that went backwards (a restarted
// daemon) is an error the caller must not average away.
func promDelta(before, after []promSample, name string) (float64, error) {
	var d float64
	for i := range after {
		b, a := before[i].sum(name), after[i].sum(name)
		if a < b {
			return 0, fmt.Errorf("counter %s went backwards in daemon %d: %v -> %v", name, i, b, a)
		}
		d += a - b
	}
	return d, nil
}
