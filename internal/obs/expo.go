package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the registry in the Prometheus
// text exposition format (version 0.0.4): a # HELP and # TYPE preamble
// per family (plus a # MERGE rule line for gauges), then one sample line
// per child, families sorted by name and children by label values so
// output is deterministic under a stable metric set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if err := writePreamble(w, f.name, f.help, f.kind, f.rule); err != nil {
			return err
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// writePreamble writes a family's # HELP and # TYPE lines and, for a
// gauge, the # MERGE line naming its cross-partition rule. Format 0.0.4
// tells scrapers to ignore comments they do not know, so the extra line
// is invisible to a plain Prometheus scrape.
func writePreamble(w io.Writer, name, help string, kind Kind, rule GaugeRule) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, kind)
	if err == nil && kind == KindGauge {
		_, err = fmt.Fprintf(w, "# MERGE %s %s\n", name, rule)
	}
	return err
}

func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	collect := f.collect
	f.mu.RUnlock()
	if collect != nil {
		samples := collect()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].LabelValues, "\x00") < strings.Join(samples[j].LabelValues, "\x00")
		})
		for _, s := range samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.LabelValues, "", 0), formatFloat(s.Value)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range f.snapshot() {
		switch m := c.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, c.values, "", 0), m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, c.values, "", 0), formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			cum, count, sum := m.Snapshot()
			for i, bound := range m.Bounds() {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", bound), cum[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", inf), count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, c.values, "", 0), formatFloat(sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, c.values, "", 0), count); err != nil {
				return err
			}
		}
	}
	return nil
}

// inf marks the +Inf bucket bound for labelString.
var inf = math.Inf(1)

// labelString renders {k="v",...}, appending an le pair when leName is
// non-empty. Returns "" for a label-free sample.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value: shortest round-trip form, with the
// spec's spelling for infinities.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
