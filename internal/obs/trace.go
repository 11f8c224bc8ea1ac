package obs

import (
	"sync"
	"time"
)

// Attr is one span attribute.
type Attr struct {
	Key, Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one recorded operation: a whole anonymous lookup at its
// initiator, or a single hop at the relay that forwarded it. Start/End are
// transport-clock timestamps (virtual time under simnet, wall-clock offsets
// under the real transports).
type Span struct {
	// Trace joins the spans of one logical operation. Anonymous-mode
	// redaction zeroes it: the query id that would join hops encodes the
	// initiator's address in its low bits, so exporting it would hand an
	// observer both a linkage key and an identity.
	Trace uint64
	Name  string
	// Node identifies the exporting node — always its own identity, never
	// a peer's, so publishing it reveals only "this node runs Octopus".
	Node  string
	Start time.Duration
	End   time.Duration
	Attrs []Attr
}

// RedactionMode selects what the tracer lets out of the process.
type RedactionMode int

const (
	// RedactAnonymous (the default) scrubs every span at record time:
	// sensitive attributes are dropped and trace ids are zeroed, so no
	// exported record links a lookup's initiator to its target key or to
	// the relay pair that carried it. What survives is timing — span
	// names, durations, and the exporter's own identity.
	RedactAnonymous RedactionMode = iota
	// RedactOff exports spans verbatim, including target keys and query
	// ids. Debugging only: with telemetry from enough nodes an observer
	// can reconstruct initiator→target for every traced lookup (the
	// redaction regression test proves exactly that). Never enable it on
	// a ring that is supposed to provide anonymity.
	RedactOff
)

// sensitiveAttrs lists the attribute keys that can identify a lookup's
// endpoints or its relay pair. Redaction drops them wholesale rather than
// hashing: a salted hash is still a join key.
var sensitiveAttrs = map[string]bool{
	"initiator":   true,
	"target":      true,
	"target_key":  true,
	"key":         true,
	"from":        true,
	"next":        true,
	"pair_first":  true,
	"pair_second": true,
}

// SensitiveAttr reports whether redaction would scrub the given attribute
// key (exported for the adversary-side telemetry analysis).
func SensitiveAttr(key string) bool { return sensitiveAttrs[key] }

// Tracer records spans into a bounded ring buffer. Recording is cheap and
// side-effect-free with respect to the protocol (no randomness, no timers),
// and a nil *Tracer ignores records, so instrumented code records
// unconditionally. Redaction happens at record time — in anonymous mode the
// raw values never enter the buffer, which keeps a heap dump or a later
// mode switch from leaking what an export would not.
type Tracer struct {
	mu      sync.Mutex
	mode    RedactionMode
	spans   []Span
	next    int
	wrapped bool
	dropped uint64
}

// NewTracer returns a tracer holding at most capacity spans (older spans
// are overwritten and counted as dropped).
func NewTracer(capacity int, mode RedactionMode) *Tracer {
	return &Tracer{mode: mode, spans: make([]Span, 0, max(capacity, 1))}
}

// Mode reports the tracer's redaction mode. Nil-safe: a nil tracer is
// maximally redacted (it records nothing).
func (t *Tracer) Mode() RedactionMode {
	if t == nil {
		return RedactAnonymous
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mode
}

// Record stores one span, applying the tracer's redaction mode. Nil-safe.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mode == RedactAnonymous {
		sp = redact(sp)
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, sp)
		return
	}
	t.spans[t.next] = sp
	t.next = (t.next + 1) % cap(t.spans)
	t.wrapped = true
	t.dropped++
}

// redact returns the span with trace id zeroed and sensitive attributes
// removed.
func redact(sp Span) Span {
	sp.Trace = 0
	kept := sp.Attrs[:0:0]
	for _, a := range sp.Attrs {
		if !sensitiveAttrs[a.Key] {
			kept = append(kept, a)
		}
	}
	sp.Attrs = kept
	return sp
}

// Spans returns a copy of the buffered spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Span, len(t.spans))
		copy(out, t.spans)
		return out
	}
	out := make([]Span, 0, cap(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// Dropped reports spans overwritten by the ring buffer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// CollectObs implements Source: buffer occupancy and overwrite count.
func (t *Tracer) CollectObs(s *Snapshot) {
	if t == nil {
		return
	}
	t.mu.Lock()
	n, dropped := len(t.spans), t.dropped
	t.mu.Unlock()
	s.AddGauge(TraceSpans, float64(n))
	s.AddCounter(TraceSpansDropped, float64(dropped))
}
