package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the standard bucket ladder for protocol latencies:
// exponential from 1 ms to ~65 s, which brackets everything from a
// single simulated hop (~tens of ms) to the sequential paper-mode
// anonymous-lookup p95 (~30 s).
var LatencyBuckets = expBuckets(0.001, 2, 17)

// expBuckets returns n upper bounds starting at start, each factor× the
// last.
func expBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Histogram is a fixed-bucket cumulative histogram safe for concurrent
// observation from any goroutine (lock-free atomics; the sum is a CAS loop
// over the float's bits). It implements Source, so registering the
// instrument itself is all a component does. A nil *Histogram ignores
// observations, which lets instrumented code observe unconditionally while
// attachment stays opt-in — the passthrough mode paper-seeded runs rely on.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram creates a histogram with the given ascending upper bounds
// (observations above the last bound land only in the implicit +Inf
// bucket).
func NewHistogram(def HistogramDef, bounds []float64, labels ...Label) *Histogram {
	return &Histogram{
		name:   def.name,
		labels: labels,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)),
	}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds. Nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count reports the total number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CollectObs implements Source: emit the cumulative bucket counts.
func (h *Histogram) CollectObs(s *Snapshot) {
	if h == nil {
		return
	}
	data := HistogramData{
		Name:    h.name,
		Labels:  h.labels,
		Buckets: make([]BucketCount, len(h.bounds)),
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		data.Buckets[i] = BucketCount{UpperBound: h.bounds[i], Count: cum}
	}
	data.Count = h.count.Load()
	data.Sum = math.Float64frombits(h.sum.Load())
	s.Histograms = append(s.Histograms, data)
}
