package obs

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// WriteText renders a snapshot in the Prometheus text exposition format
// (version 0.0.4): one # HELP / # TYPE header per metric family (help text
// from the catalog, type from the kind it was emitted as), then one line per
// series. Series within a family keep the snapshot's deterministic order.
func WriteText(w io.Writer, s *Snapshot) error {
	type family struct {
		typ   string
		lines strings.Builder
	}
	fams := map[string]*family{}
	add := func(name, typ, series string, labels []Label, value string) {
		f := fams[name]
		if f == nil {
			f = &family{typ: typ}
			fams[name] = f
		}
		f.lines.WriteString(series)
		writeLabels(&f.lines, labels)
		f.lines.WriteString(" " + value + "\n")
	}
	for _, c := range s.Counters {
		add(c.Name, "counter", c.Name, c.Labels, formatValue(c.Value))
	}
	for _, g := range s.Gauges {
		add(g.Name, "gauge", g.Name, g.Labels, formatValue(g.Value))
	}
	for _, h := range s.Histograms {
		le := append(slices.Clip(h.Labels), L("le", ""))
		for _, b := range h.Buckets {
			le[len(le)-1].Value = formatValue(b.UpperBound)
			add(h.Name, "histogram", h.Name+"_bucket", le, strconv.FormatUint(b.Count, 10))
		}
		le[len(le)-1].Value = "+Inf"
		add(h.Name, "histogram", h.Name+"_bucket", le, strconv.FormatUint(h.Count, 10))
		add(h.Name, "histogram", h.Name+"_sum", h.Labels, formatValue(h.Sum))
		add(h.Name, "histogram", h.Name+"_count", h.Labels, strconv.FormatUint(h.Count, 10))
	}
	for _, name := range slices.Sorted(maps.Keys(fams)) {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", name, helpText(name), name, f.typ, f.lines.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeLabels appends a label set as {k="v",...}, or nothing when empty.
func writeLabels(b *strings.Builder, labels []Label) {
	sep := "{"
	for _, l := range labels {
		b.WriteString(sep + l.Key + `="`)
		_, _ = labelEscaper.WriteString(b, l.Value)
		b.WriteByte('"')
		sep = ","
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
}

// labelEscaper escapes a label value. It is built once: a value that needs
// no escape, nearly every one, is written as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
