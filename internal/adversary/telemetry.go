// Telemetry analysis: the adversary's view of exported observability data.
//
// The paper's adversary watches the wire; this file models a weaker but
// very realistic one that never touches the network at all — it simply
// reads the telemetry nodes export (a scraped /metrics endpoint, a span
// dump, logs shipped to a collector). If tracing leaks, anonymity is
// broken without a single malicious node in the ring, so the obs layer's
// redaction (internal/obs) is as load-bearing as the relay pairs
// themselves. AnalyzeTelemetry is the attack; the redaction regression
// test feeds it exported spans and demands zero linkage in anonymous mode.
package adversary

import (
	"cmp"
	"slices"
	"strconv"

	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/simnet"
)

// TelemetryLink is one initiator→target association recovered from
// exported spans. Target is whatever the telemetry exposed: a target key
// for a lookup span, a destination address for a relay-exit span.
type TelemetryLink struct {
	Initiator simnet.Address
	Target    string
	// Via names the leak that produced the link: "lookup-span" (an
	// initiator-side span carrying both endpoints) or "trace-id" (hop
	// spans joined by a query id whose low 16 bits encode the
	// initiator's address).
	Via string
}

// TelemetryReport is what the adversary got out of a telemetry corpus.
type TelemetryReport struct {
	// Spans is the corpus size — used by tests to prove the corpus was
	// non-trivial when the attack comes up empty.
	Spans int
	// Links are the recovered initiator→target associations,
	// deduplicated and sorted.
	Links []TelemetryLink
	// InitiatorExposures counts distinct trace ids that identified an
	// initiator even when no matching target span was exported. A
	// deanonymized initiator with an unknown target is still a leak.
	InitiatorExposures int
}

// attr returns the value of the named span attribute, or "" if absent.
func attr(sp obs.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// AnalyzeTelemetry mounts the telemetry attack against a pooled span dump
// (the union of every node's exported traces). Two independent leaks are
// exploited:
//
//  1. Lookup spans that carry both an "initiator" and a "target_key"
//     attribute link the endpoints directly.
//  2. The wire protocol's query id is seq<<16 | initiatorAddr, so any
//     span exporting a nonzero trace id names its initiator in the low
//     16 bits; joining hop spans on the trace id and reading the exit
//     hop's "target" attribute completes the link.
//
// With RedactOff tracers both leaks fire on every traced lookup. With
// RedactAnonymous (the default) sensitive attributes are dropped and
// trace ids zeroed at record time, and the report must come back empty —
// that is the invariant the redaction regression test enforces.
func AnalyzeTelemetry(spans []obs.Span) TelemetryReport {
	rep := TelemetryReport{Spans: len(spans)}
	seen := map[TelemetryLink]bool{}
	add := func(l TelemetryLink) {
		if !seen[l] {
			seen[l] = true
			rep.Links = append(rep.Links, l)
		}
	}

	// Leak 1: initiator-side lookup spans exposing both endpoints.
	for _, sp := range spans {
		if sp.Name != "lookup" {
			continue
		}
		ini, key := attr(sp, "initiator"), attr(sp, "target_key")
		if ini == "" || key == "" {
			continue
		}
		if a, err := strconv.Atoi(ini); err == nil {
			add(TelemetryLink{Initiator: simnet.Address(a), Target: key, Via: "lookup-span"})
		}
	}

	// Leak 2: hop spans joined by trace id. The id itself deanonymizes
	// the initiator; an exit span in the same trace supplies the target.
	byTrace := map[uint64][]obs.Span{}
	for _, sp := range spans {
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	rep.InitiatorExposures = len(byTrace)
	for qid, group := range byTrace {
		initiator := simnet.Address(qid & 0xffff)
		for _, sp := range group {
			if target := attr(sp, "target"); target != "" {
				add(TelemetryLink{Initiator: initiator, Target: target, Via: "trace-id"})
			}
		}
	}

	slices.SortFunc(rep.Links, func(a, b TelemetryLink) int {
		return cmp.Or(cmp.Compare(a.Initiator, b.Initiator), cmp.Compare(a.Target, b.Target), cmp.Compare(a.Via, b.Via))
	})
	return rep
}
