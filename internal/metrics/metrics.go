// Package metrics provides the small statistics toolkit the experiment
// harness (internal/experiments) uses to reproduce the paper's §5–§7
// evaluation figures: samples with mean/median/percentiles, CDFs (e.g. the
// lookup-latency CDFs of Fig. 5), and time series (e.g. the CA workload
// series of Fig. 7).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates float64 observations.
type Sample struct {
	values []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddDuration appends a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank:
// the smallest observation with at least p% of the sample at or below it,
// ceil(p/100·N) in rank terms. The previous floor-of-(N-1) formula
// underestimated high percentiles on small samples — most visibly P95 of a
// two-element sample, which returned the minimum.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)]
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Min and Max return the extremes.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF downsampled to at most `points` points.
// An empty sample yields an empty (nil) CDF — render it with FormatCDF,
// which says so explicitly instead of emitting a bare header.
func (s *Sample) CDF(points int) []CDFPoint {
	n := len(s.values)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	if points <= 0 || points > n {
		points = n
	}
	if points == 1 {
		// A one-point CDF must still reach fraction 1 — the maximum, not
		// the minimum the general grid formula degenerated to.
		return []CDFPoint{{Value: s.values[n-1], Fraction: 1}}
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (n - 1) / (points - 1)
		out = append(out, CDFPoint{
			Value:    s.values[idx],
			Fraction: float64(idx+1) / float64(n),
		})
	}
	return out
}

// FormatCDF renders a CDF as two aligned columns, with the value column
// scaled by valueScale (e.g. 1000 for milliseconds) under the given
// heading. An empty CDF renders as an explicit "(no samples)" line rather
// than a silently empty table.
func FormatCDF(points []CDFPoint, valueHeader string, valueScale float64) string {
	out := fmt.Sprintf("%-12s %s\n", valueHeader, "CDF")
	if len(points) == 0 {
		return out + "(no samples)\n"
	}
	for _, p := range points {
		out += fmt.Sprintf("%-12.0f %.3f\n", p.Value*valueScale, p.Fraction)
	}
	return out
}

// SeriesPoint is one time-series sample.
type SeriesPoint struct {
	T time.Duration
	V float64
}

// Series is an append-only time series.
type Series struct {
	Points []SeriesPoint
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, SeriesPoint{T: t, V: v})
}

// Format renders the series as two aligned columns.
func (s *Series) Format(header string) string {
	out := fmt.Sprintf("%-12s %s\n", "time(s)", header)
	for _, p := range s.Points {
		out += fmt.Sprintf("%-12.0f %.4f\n", p.T.Seconds(), p.V)
	}
	return out
}
