package obs

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// validateName checks a metric name against the naming conventions for its
// kind: octopus_ prefix, snake_case, counters end in _total, gauges do not,
// histograms carry a unit suffix.
func validateName(name, kind string) error {
	if !strings.HasPrefix(name, "octopus_") {
		return fmt.Errorf("%s: missing octopus_ prefix", name)
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return fmt.Errorf("%s: character %q outside [a-z0-9_]", name, r)
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("%s: counter must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("%s: gauge must not end in _total", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			return fmt.Errorf("%s: histogram must carry a unit suffix (_seconds or _bytes)", name)
		}
	default:
		return fmt.Errorf("%s: unknown metric kind %q", name, kind)
	}
	return nil
}

// TestCatalogValid checks every catalog entry's name and help text and
// rejects duplicates.
func TestCatalogValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range catalog {
		if seen[d.name] {
			t.Errorf("%s: duplicate catalog entry", d.name)
		}
		seen[d.name] = true
		if err := validateName(d.name, d.kind); err != nil {
			t.Error(err)
		}
		if d.help == "" {
			t.Errorf("%s: missing help text", d.name)
		}
	}
}

func TestValidateName(t *testing.T) {
	cases := []struct {
		name, kind string
		ok         bool
	}{
		{"octopus_lookups_started_total", "counter", true},
		{"octopus_pool_pairs", "gauge", true},
		{"octopus_lookup_latency_seconds", "histogram", true},
		{"lookups_total", "counter", false},            // no prefix
		{"octopus_lookups", "counter", false},          // counter without _total
		{"octopus_pool_pairs_total", "gauge", false},   // gauge with _total
		{"octopus_lookup_latency", "histogram", false}, // no unit
		{"octopus_Bad_total", "counter", false},        // uppercase
		{"octopus_x_total", "weird", false},            // unknown kind
	}
	for _, c := range cases {
		err := validateName(c.name, c.kind)
		if (err == nil) != c.ok {
			t.Errorf("validateName(%q, %q) = %v, want ok=%v", c.name, c.kind, err, c.ok)
		}
	}
}

// docRowRe matches one catalog-table row: | `name` | kind | Meaning. |
var docRowRe = regexp.MustCompile("^\\|\\s*`([a-z0-9_]+)`\\s*\\|\\s*([a-z]+)\\s*\\|\\s*(.*?)\\s*\\|\\s*$")

// diffCatalogDoc compares the "### Metric catalog" table of a deployment doc
// with defs and returns one complaint per drift: a metric missing from the
// table, a row for a metric not in defs, or a row whose kind or meaning
// differs from the definition.
func diffCatalogDoc(defs []metricDef, doc string) []string {
	_, section, ok := strings.Cut(doc, "\n### Metric catalog\n")
	if !ok {
		return []string{`the doc has no "### Metric catalog" section`}
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i] // the next heading ends the section
	}
	rows := map[string]metricDef{}
	var order []string
	for _, line := range strings.Split(section, "\n") {
		if m := docRowRe.FindStringSubmatch(line); m != nil {
			// Backticks are doc styling around label names.
			rows[m[1]] = metricDef{name: m[1], kind: m[2], help: strings.ReplaceAll(m[3], "`", "")}
			order = append(order, m[1])
		}
	}
	var drift []string
	registered := map[string]bool{}
	for _, def := range defs {
		registered[def.name] = true
		row, ok := rows[def.name]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("%s is in the catalog but has no row in the doc's table", def.name))
		case row.kind != def.kind:
			drift = append(drift, fmt.Sprintf("%s: the doc says %s, the catalog %s", def.name, row.kind, def.kind))
		}
		if ok && row.help != def.help {
			drift = append(drift, fmt.Sprintf("%s: the doc's meaning %q differs from the catalog's help %q", def.name, row.help, def.help))
		}
	}
	for _, name := range order {
		if !registered[name] {
			drift = append(drift, fmt.Sprintf("the doc's table lists %s, which is not in the catalog", name))
		}
	}
	return drift
}

// TestRealDeploymentDocInSync binds docs/DEPLOYMENT.md's "Metric catalog"
// table to the catalog declared in catalog.go, row for row.
func TestRealDeploymentDocInSync(t *testing.T) {
	doc, err := os.ReadFile("../../docs/DEPLOYMENT.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffCatalogDoc(catalog, string(doc)) {
		t.Error("DEPLOYMENT.md: " + d)
	}
}

var testDefs = []metricDef{
	{name: "octopus_a_total", kind: "counter", help: "Counts a."},
	{name: "octopus_b", kind: "gauge", help: "Measures b."},
}

// inSyncDoc mirrors testDefs. The backticks around b are doc styling, and
// the row after the next heading lies outside the table.
const inSyncDoc = "## Monitoring\n\n### Metric catalog\n\n| Metric | Type | Meaning |\n|---|---|---|\n" +
	"| `octopus_a_total` | counter | Counts a. |\n| `octopus_b` | gauge | Measures `b`. |\n\n### Next section\n" +
	"| `octopus_c_total` | counter | Outside the section. |\n"

// wantDrift fails t unless drift holds one complaint per entry of want,
// each mentioning its entry.
func wantDrift(t *testing.T, drift []string, want ...string) {
	t.Helper()
	if len(drift) != len(want) {
		t.Fatalf("drift = %q, want %d complaints", drift, len(want))
	}
	for i, w := range want {
		if !strings.Contains(drift[i], w) {
			t.Errorf("complaint %q, want it to mention %q", drift[i], w)
		}
	}
}

func TestDocInSync(t *testing.T) {
	wantDrift(t, diffCatalogDoc(testDefs, inSyncDoc))
}

func TestDocMissingMetric(t *testing.T) {
	doc := strings.Replace(inSyncDoc, "| `octopus_b` | gauge | Measures `b`. |\n", "", 1)
	wantDrift(t, diffCatalogDoc(testDefs, doc), "octopus_b is in the catalog")
}

func TestDocStaleRow(t *testing.T) {
	doc := strings.Replace(inSyncDoc, "\n### Next", "| `octopus_gone_total` | counter | Removed. |\n\n### Next", 1)
	wantDrift(t, diffCatalogDoc(testDefs, doc), "octopus_gone_total, which is not")
}

func TestDocTypeAndHelpDrift(t *testing.T) {
	doc := strings.Replace(inSyncDoc, "| gauge | Measures `b`.", "| counter | Measures c.", 1)
	wantDrift(t, diffCatalogDoc(testDefs, doc), "the doc says counter", "Measures c.")
}

func TestDocSectionMissing(t *testing.T) {
	doc := strings.Replace(inSyncDoc, "### Metric catalog", "### Metrics", 1)
	wantDrift(t, diffCatalogDoc(testDefs, doc), "no \"### Metric catalog\" section")
}

// snapshotErrors reports each series of s whose name is not in the catalog
// or is filed under a kind other than its catalog kind. Outside this package
// the def types rule both out; inside it a def can be written as a struct
// literal, so the package's own emitters are checked against the catalog.
func snapshotErrors(s *Snapshot) []error {
	kinds := map[string]string{}
	for _, d := range catalog {
		kinds[d.name] = d.kind
	}
	var errs []error
	check := func(name, kind string) {
		switch k, ok := kinds[name]; {
		case !ok:
			errs = append(errs, fmt.Errorf("%s: not in the catalog", name))
		case k != kind:
			errs = append(errs, fmt.Errorf("%s: emitted as %s, declared as %s", name, kind, k))
		}
	}
	for _, x := range s.Counters {
		check(x.Name, "counter")
	}
	for _, x := range s.Gauges {
		check(x.Name, "gauge")
	}
	for _, x := range s.Histograms {
		check(x.Name, "histogram")
	}
	return errs
}

func TestValidateSnapshot(t *testing.T) {
	c := NewCollector()
	c.Register(FuncSource(func(s *Snapshot) { EmitTraffic(s, "test", Traffic{1, 2, 3, 4}) }))
	c.Register(NewTracer(4, RedactAnonymous))
	for _, h := range []HistogramDef{LookupLatency, ServiceWait, StorePutLatency, StoreGetLatency} {
		c.Register(NewHistogram(h, []float64{1}))
	}
	s := c.Snapshot()
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n != 10 {
		t.Fatalf("the package's emitters gave %d series, want 10", n)
	}
	if errs := snapshotErrors(s); len(errs) != 0 {
		t.Fatalf("the package's emitters: %v", errs)
	}

	var bad Snapshot
	bad.AddCounter(LookupsStarted, 1)
	bad.AddCounter(CounterDef{"octopus_not_in_catalog_total"}, 1)
	bad.AddGauge(GaugeDef{"octopus_lookups_completed_total"}, 1) // declared a counter
	if errs := snapshotErrors(&bad); len(errs) != 2 {
		t.Fatalf("got %d errors, want 2: %v", len(errs), errs)
	}
}
