// Package obs is the unified instrumentation layer: one Collector/Snapshot
// API that every subsystem (chord/core routing, the lookup service, the
// store, all transport backends, and the simulator) registers against, and
// that every consumer (the Prometheus-text exporter, octopusd's status
// loop, octopus-bench, and the experiments' headline numbers) reads from.
// Every metric is declared once, in catalog.go, as a value only this package
// can make; the counters themselves live in the package that increments
// them, and each source emits them by catalog value from CollectObs.
//
// obs is a leaf package: it imports only the standard library, because the
// packages it instruments import it. Nothing here draws randomness,
// schedules timers, or blocks — registering sources and observing values
// is side-effect-free with respect to the discrete-event simulation, which
// is what keeps seeded paper figures bit-identical with instrumentation
// attached (the "passthrough" guarantee).
//
// Telemetry is part of the anonymity attack surface (see trace.go): the
// tracer scrubs spans at record time so that in anonymous mode no exported
// record links a lookup's initiator to its target key or relay pair.
package obs

import (
	"slices"
	"strings"
	"sync"
)

// Label is one metric dimension, rendered as name{key="value"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sample is one counter or gauge reading.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// BucketCount is one cumulative histogram bucket: observations <= UpperBound.
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// HistogramData is one histogram series reading.
type HistogramData struct {
	Name    string
	Labels  []Label
	Buckets []BucketCount // cumulative, ascending UpperBound, +Inf implied
	Count   uint64
	Sum     float64
}

// Snapshot is a point-in-time reading of every registered source. Sources
// append to it from CollectObs; consumers read the sorted slices or use the
// lookup helpers.
type Snapshot struct {
	Counters   []Sample
	Gauges     []Sample
	Histograms []HistogramData
}

// AddCounter appends one counter sample.
func (s *Snapshot) AddCounter(c CounterDef, v float64, labels ...Label) {
	s.Counters = append(s.Counters, Sample{Name: c.name, Labels: labels, Value: v})
}

// AddGauge appends one gauge sample.
func (s *Snapshot) AddGauge(g GaugeDef, v float64, labels ...Label) {
	s.Gauges = append(s.Gauges, Sample{Name: g.name, Labels: labels, Value: v})
}

// CounterSum sums every sample of a counter across labels — the aggregation
// consumers use when per-node series don't matter (e.g. the load experiment
// summing pool-refill counters across all serving nodes).
func (s *Snapshot) CounterSum(c CounterDef) float64 { return sampleSum(s.Counters, c.name) }

// GaugeSum sums every sample of a gauge across labels.
func (s *Snapshot) GaugeSum(g GaugeDef) float64 { return sampleSum(s.Gauges, g.name) }

func sampleSum(samples []Sample, name string) float64 {
	var total float64
	for _, x := range samples {
		if x.Name == name {
			total += x.Value
		}
	}
	return total
}

// HistogramTotal returns the summed observation count and value sum of every
// series of a histogram.
func (s *Snapshot) HistogramTotal(h HistogramDef) (count uint64, sum float64) {
	for _, d := range s.Histograms {
		if d.Name == h.name {
			count += d.Count
			sum += d.Sum
		}
	}
	return count, sum
}

// normalize sorts the snapshot into the deterministic order the exporter
// and tests rely on.
func (s *Snapshot) normalize() {
	sample := func(x Sample) (string, []Label) { return x.Name, x.Labels }
	sortSeries(s.Counters, sample)
	sortSeries(s.Gauges, sample)
	sortSeries(s.Histograms, func(h HistogramData) (string, []Label) { return h.Name, h.Labels })
}

// sortSeries orders series by name, then label pairs, building each one's
// sort key once; series with equal keys keep their order.
func sortSeries[T any](xs []T, series func(T) (string, []Label)) {
	type keyed struct {
		k string
		x T
	}
	ks := make([]keyed, len(xs))
	for i, x := range xs {
		name, labels := series(x)
		ks[i] = keyed{name, x}
		for _, l := range labels {
			ks[i].k += "\x00" + l.Key + "\x01" + l.Value
		}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return strings.Compare(a.k, b.k) })
	for i, kx := range ks {
		xs[i] = kx.x
	}
}

// Source is the one interface every instrumented subsystem implements:
// append current readings to the snapshot. Implementations must be safe to
// call from any goroutine (the exporter scrapes concurrently with the
// workload) and must not block.
type Source interface {
	CollectObs(*Snapshot)
}

// FuncSource adapts a plain function to Source.
type FuncSource func(*Snapshot)

// CollectObs implements Source.
func (f FuncSource) CollectObs(s *Snapshot) { f(s) }

// Collector is the registry: subsystems Register once, consumers call
// Snapshot whenever they want a reading. A nil *Collector is valid and
// inert, so wiring can be unconditional while attachment stays opt-in.
type Collector struct {
	mu      sync.Mutex
	sources []Source
}

// NewCollector returns an empty registry.
func NewCollector() *Collector { return &Collector{} }

// Register adds a source. Safe for concurrent use.
func (c *Collector) Register(src Source) {
	if c == nil || src == nil {
		return
	}
	c.mu.Lock()
	c.sources = append(c.sources, src)
	c.mu.Unlock()
}

// Snapshot collects every registered source into one sorted snapshot.
// On a nil Collector it returns an empty snapshot.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{}
	if c == nil {
		return s
	}
	c.mu.Lock()
	srcs := make([]Source, len(c.sources))
	copy(srcs, c.sources)
	c.mu.Unlock()
	for _, src := range srcs {
		src.CollectObs(s)
	}
	s.normalize()
	return s
}

// Traffic is the canonical per-transport byte/message accounting, counting
// codec bytes only (framing overhead is excluded by the conformance
// contract; nettransport exposes frame counts separately).
type Traffic struct {
	BytesSent     uint64
	BytesReceived uint64
	MsgsSent      uint64
	MsgsReceived  uint64
}

// EmitTraffic appends the standard per-backend transport counter series for
// one backend, so the three transport implementations share one shape.
func EmitTraffic(s *Snapshot, backend string, t Traffic) {
	l := L("backend", backend)
	s.AddCounter(TransportBytesSent, float64(t.BytesSent), l)
	s.AddCounter(TransportBytesReceived, float64(t.BytesReceived), l)
	s.AddCounter(TransportMsgsSent, float64(t.MsgsSent), l)
	s.AddCounter(TransportMsgsReceived, float64(t.MsgsReceived), l)
}
