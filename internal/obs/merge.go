package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
)

// GaugeRule says how a gauge family aggregates across partitions. Every
// gauge is registered with one; the exposition carries it as a
// "# MERGE <family> <rule>" comment after the family's # TYPE line, so
// Merge reads each gauge's rule off the exposition itself and needs no
// table of its own.
type GaugeRule string

const (
	// GaugeSum adds the partitions' values (e.g. in-flight requests).
	GaugeSum GaugeRule = "sum"
	// GaugeMax keeps the worst/largest value (e.g. replication lag).
	GaugeMax GaugeRule = "max"
	// GaugeMin keeps the smallest value (e.g. uptime: the youngest
	// process bounds how long the whole fleet has been stable).
	GaugeMin GaugeRule = "min"
)

func (g GaugeRule) valid() bool { return g == GaugeSum || g == GaugeMax || g == GaugeMin }

// Merge combines several Prometheus text expositions into one cluster
// view: counter samples and histogram series SUM per label set, and
// gauges aggregate per label set under the rule their exposition carries.
// A gauge with no rule, or whose rule differs between expositions, is an
// error naming the family. Histogram bucket ladders are merged over the
// union of bounds; a source lacking a bound contributes its cumulative
// count at its own next-lower bound (a documented lower bound on the true
// value — exact in practice, since every partition runs the same binary
// and therefore the same ladder). Families need not
// appear in every exposition, but a name must keep one kind everywhere.
func Merge(expositions [][]byte) ([]byte, error) {
	type mergedFam struct {
		name    string
		help    string
		kind    Kind
		rule    GaugeRule
		sets    map[string]*labelSet // key: canonical labels sans le
		setKeys []string
	}
	byName := make(map[string]*mergedFam)
	var order []string

	for pi, text := range expositions {
		fams, err := ParseExposition(bytes.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("obs: merge: exposition %d: %w", pi, err)
		}
		for _, f := range fams {
			mf := byName[f.Name]
			if mf == nil {
				mf = &mergedFam{name: f.Name, help: f.Help, kind: f.Kind, rule: f.Rule, sets: make(map[string]*labelSet)}
				byName[f.Name] = mf
				order = append(order, f.Name)
			}
			if f.Kind != mf.kind {
				return nil, fmt.Errorf("obs: merge: family %s is %s in exposition %d, %s elsewhere", f.Name, f.Kind, pi, mf.kind)
			}
			if mf.kind == KindGauge && f.Rule == "" {
				return nil, fmt.Errorf("obs: merge: gauge %s in exposition %d has no # MERGE rule", f.Name, pi)
			}
			if f.Rule != mf.rule {
				return nil, fmt.Errorf("obs: merge: gauge %s merges by %s in exposition %d, by %s elsewhere", f.Name, f.Rule, pi, mf.rule)
			}
			for _, s := range f.Samples {
				key, labels, le, hasLe := splitLe(s.Labels)
				ls := mf.sets[key]
				if ls == nil {
					ls = &labelSet{labels: labels, buckets: make(map[float64]float64)}
					mf.sets[key] = ls
					mf.setKeys = append(mf.setKeys, key)
				}
				switch {
				case mf.kind == KindHistogram && s.Suffix == "_bucket":
					if !hasLe {
						return nil, fmt.Errorf("obs: merge: %s_bucket sample without le label", f.Name)
					}
					ls.addBucket(pi, le, s.Value)
				case mf.kind == KindHistogram && s.Suffix == "_sum":
					ls.sum += s.Value
				case mf.kind == KindHistogram && s.Suffix == "_count":
					ls.count += s.Value
				case mf.kind == KindCounter:
					ls.sum += s.Value
				default: // gauge
					ls.aggregate(mf.rule, s.Value)
				}
			}
		}
	}

	var out bytes.Buffer
	sort.Strings(order)
	for _, name := range order {
		mf := byName[name]
		writePreamble(&out, mf.name, mf.help, mf.kind, mf.rule)
		sort.Strings(mf.setKeys)
		for _, key := range mf.setKeys {
			ls := mf.sets[key]
			switch mf.kind {
			case KindHistogram:
				ls.writeHistogram(&out, mf.name)
			case KindCounter:
				fmt.Fprintf(&out, "%s%s %s\n", mf.name, renderLabels(ls.labels), formatFloat(ls.sum))
			default:
				fmt.Fprintf(&out, "%s%s %s\n", mf.name, renderLabels(ls.labels), formatFloat(ls.gauge))
			}
		}
	}
	return out.Bytes(), nil
}

// labelSet accumulates one label combination of one family across
// expositions.
type labelSet struct {
	labels []Label
	sum    float64 // counter value, or histogram _sum
	count  float64 // histogram _count
	gauge  float64 // gauge under its rule
	gaugeN int
	// buckets holds, per le bound, the summed cumulative count; perSrc
	// tracks each source's own (bound → cumulative) step function so
	// union re-bucketing can evaluate it at foreign bounds.
	buckets map[float64]float64
	perSrc  []map[float64]float64
}

func (ls *labelSet) addBucket(src int, le, cum float64) {
	for len(ls.perSrc) <= src {
		ls.perSrc = append(ls.perSrc, nil)
	}
	if ls.perSrc[src] == nil {
		ls.perSrc[src] = make(map[float64]float64)
	}
	ls.perSrc[src][le] = cum
	ls.buckets[le] = 0 // mark the bound; summed in writeHistogram
}

func (ls *labelSet) aggregate(rule GaugeRule, v float64) {
	if ls.gaugeN == 0 {
		ls.gauge = v
	} else {
		switch rule {
		case GaugeSum:
			ls.gauge += v
		case GaugeMax:
			ls.gauge = math.Max(ls.gauge, v)
		case GaugeMin:
			ls.gauge = math.Min(ls.gauge, v)
		}
	}
	ls.gaugeN++
}

// writeHistogram renders the union-re-bucketed series: each source's
// cumulative step function is evaluated at every union bound (value at
// the next-lower owned bound, 0 below the first) and the evaluations sum.
func (ls *labelSet) writeHistogram(out *bytes.Buffer, name string) {
	bounds := make([]float64, 0, len(ls.buckets))
	for b := range ls.buckets {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	for _, b := range bounds {
		var total float64
		for _, src := range ls.perSrc {
			total += stepValue(src, b)
		}
		fmt.Fprintf(out, "%s_bucket%s %s\n", name, renderLabelsLe(ls.labels, b), formatFloat(total))
	}
	fmt.Fprintf(out, "%s_sum%s %s\n", name, renderLabels(ls.labels), formatFloat(ls.sum))
	fmt.Fprintf(out, "%s_count%s %s\n", name, renderLabels(ls.labels), formatFloat(ls.count))
}

// stepValue evaluates one source's cumulative bucket step function at
// bound b: its count at the largest owned bound ≤ b.
func stepValue(src map[float64]float64, b float64) float64 {
	if src == nil {
		return 0
	}
	if v, ok := src[b]; ok {
		return v
	}
	best := math.Inf(-1)
	var val float64
	for bound, v := range src {
		if bound <= b && bound > best {
			best, val = bound, v
		}
	}
	return val
}

// splitLe canonicalizes a sample's labels: the le pair (if any) is
// peeled off, the rest are sorted into a map key.
func splitLe(labels []Label) (key string, rest []Label, le float64, hasLe bool) {
	for _, l := range labels {
		if l.Name == "le" {
			le, _ = parseValue(l.Value)
			hasLe = true
			continue
		}
		rest = append(rest, l)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	parts := make([]string, len(rest))
	for i, l := range rest {
		parts[i] = l.Name + "\x00" + l.Value
	}
	return strings.Join(parts, "\x01"), rest, le, hasLe
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// renderLabelsLe renders the labels with the le pair re-attached last,
// matching WritePrometheus's bucket-line shape.
func renderLabelsLe(labels []Label, le float64) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabel(l.Value))
	}
	if len(labels) > 0 {
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, `le="%s"`, formatFloat(le))
	b.WriteByte('}')
	return b.String()
}
