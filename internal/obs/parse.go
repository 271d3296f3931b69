package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsedFamily is one metric family read back from exposition text.
type ParsedFamily struct {
	Name    string
	Help    string
	Kind    Kind
	Rule    GaugeRule // gauges: the rule from the # MERGE line, if any
	Samples []ParsedSample
}

// ParsedSample is one sample line. For histogram families Suffix is
// "_bucket", "_sum" or "_count"; otherwise it is empty.
type ParsedSample struct {
	Suffix string
	Labels []Label // in source order, including any le pair
	Value  float64
}

// Label is one name="value" pair.
type Label struct{ Name, Value string }

// ParseExposition reads Prometheus text exposition format back into
// families, in source order. Samples must follow their family's # TYPE
// line — the shape WritePrometheus produces and the scrape merge needs;
// an untyped family or an out-of-order sample is an error. A gauge's
// # MERGE line must follow its # TYPE line, before any sample; other
// comments are skipped.
func ParseExposition(r io.Reader) ([]*ParsedFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var fams []*ParsedFamily
	byName := make(map[string]*ParsedFamily)
	var cur *ParsedFamily
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			f := byName[name]
			if f == nil {
				f = &ParsedFamily{Name: name}
				byName[name] = f
				fams = append(fams, f)
			}
			f.Help = unescapeHelp(help)
			cur = f
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", lineNo, line)
			}
			f := byName[name]
			if f == nil {
				f = &ParsedFamily{Name: name}
				byName[name] = f
				fams = append(fams, f)
			}
			if f.Kind != "" {
				return nil, fmt.Errorf("obs: line %d: second TYPE line for %s", lineNo, name)
			}
			switch Kind(kind) {
			case KindCounter, KindGauge, KindHistogram:
				f.Kind = Kind(kind)
			default:
				return nil, fmt.Errorf("obs: line %d: unsupported metric type %q for %s", lineNo, kind, name)
			}
			cur = f
			continue
		}
		if strings.HasPrefix(line, "# MERGE ") {
			name, rule, _ := strings.Cut(strings.TrimPrefix(line, "# MERGE "), " ")
			if cur == nil || cur.Name != name || cur.Kind != KindGauge || cur.Rule != "" || len(cur.Samples) > 0 {
				return nil, fmt.Errorf("obs: line %d: MERGE line for %s does not follow its gauge's TYPE line", lineNo, name)
			}
			if cur.Rule = GaugeRule(rule); !cur.Rule.valid() {
				return nil, fmt.Errorf("obs: line %d: unknown merge rule %q for %s", lineNo, rule, name)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments
		}
		sample, name, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		f, suffix, err := resolveFamily(cur, name)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		sample.Suffix = suffix
		f.Samples = append(f.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Kind == "" {
			return nil, fmt.Errorf("obs: family %s has no TYPE line", f.Name)
		}
	}
	return fams, nil
}

// resolveFamily matches a sample name against the family whose preamble
// precedes it, peeling the histogram series suffixes.
func resolveFamily(cur *ParsedFamily, name string) (*ParsedFamily, string, error) {
	if cur == nil {
		return nil, "", fmt.Errorf("sample %s before any # TYPE line", name)
	}
	if name == cur.Name {
		if cur.Kind == KindHistogram {
			return nil, "", fmt.Errorf("histogram %s has a bare sample", name)
		}
		return cur, "", nil
	}
	if cur.Kind == KindHistogram {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if name == cur.Name+suffix {
				return cur, suffix, nil
			}
		}
	}
	return nil, "", fmt.Errorf("sample %s does not belong to preceding family %s", name, cur.Name)
}

// parseSample splits `name{labels} value` (labels optional).
func parseSample(line string) (ParsedSample, string, error) {
	var s ParsedSample
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, "", fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, "", fmt.Errorf("sample %s: %w", name, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp after the value is legal in the format; keep the value only.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, "", fmt.Errorf("sample %s: %w", name, err)
	}
	s.Value = v
	return s, name, nil
}

// parseLabels consumes a {k="v",...} block, returning the index just
// past the closing brace.
func parseLabels(s string) (int, []Label, error) {
	var labels []Label
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label %s: missing opening quote", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: b.String()})
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return inf, nil
	case "-Inf":
		return -inf, nil
	}
	return strconv.ParseFloat(s, 64)
}

func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
