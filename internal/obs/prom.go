package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The Prometheus text exposition format, hand-rolled: `# HELP` and `# TYPE`
// metadata lines per family, then `name{label="value"} value` samples.
// Histograms expand to `_bucket` (cumulative, with an `le` label per bound
// and a closing `le="+Inf"`), `_sum` and `_count` series. LintExposition is
// the other half of the contract: everything an Exposition emits must pass
// it, and tests plus the serve-smoke CI job hold the server's /metrics
// output to it.

// familyNameRE is the accepted metric-family name shape (conventional
// Prometheus names; a stricter subset of what Prometheus itself accepts).
var familyNameRE = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*$`)

// labelNameRE is the accepted label-name shape.
var labelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Label is one name="value" pair of a sample.
type Label struct {
	Name, Value string
}

// Exposition writes one scrape document. Errors (bad names, duplicate
// families, samples before metadata) stick: the first one is reported by
// Err and later writes are suppressed, so call sites stay linear.
type Exposition struct {
	w    io.Writer
	err  error
	seen map[string]bool
	cur  string // family currently open for samples
	typ  string // its TYPE
}

// NewExposition starts a scrape document on w.
func NewExposition(w io.Writer) *Exposition {
	return &Exposition{w: w, seen: make(map[string]bool)}
}

// Err returns the first error of the document's construction, if any.
func (e *Exposition) Err() error { return e.err }

func (e *Exposition) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("obs: exposition: "+format, args...)
	}
}

// Family opens a metric family: one HELP and one TYPE line. typ is
// "counter", "gauge" or "histogram". Every subsequent Sample/Histogram call
// must belong to it until the next Family.
func (e *Exposition) Family(name, typ, help string) {
	if e.err != nil {
		return
	}
	if !familyNameRE.MatchString(name) {
		e.fail("bad family name %q", name)
		return
	}
	switch typ {
	case "counter", "gauge", "histogram":
	default:
		e.fail("family %s: unsupported type %q", name, typ)
		return
	}
	if e.seen[name] {
		e.fail("duplicate family %s", name)
		return
	}
	e.seen[name] = true
	e.cur, e.typ = name, typ
	if strings.ContainsAny(help, "\n") {
		help = strings.ReplaceAll(help, "\n", " ")
	}
	_, err := fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	if err != nil {
		e.fail("%v", err)
	}
}

// Sample emits one sample of the open family.
func (e *Exposition) Sample(labels []Label, value float64) {
	e.sample(e.cur, labels, value)
}

func (e *Exposition) sample(name string, labels []Label, value float64) {
	if e.err != nil {
		return
	}
	if e.cur == "" {
		e.fail("sample %s before any family", name)
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if !labelNameRE.MatchString(l.Name) {
				e.fail("family %s: bad label name %q", name, l.Name)
				return
			}
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabelValue(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatSampleValue(value))
	sb.WriteByte('\n')
	if _, err := io.WriteString(e.w, sb.String()); err != nil {
		e.fail("%v", err)
	}
}

// Histogram emits the open histogram family's _bucket/_sum/_count series
// for one label set from a snapshot.
func (e *Exposition) Histogram(labels []Label, s HistSnapshot) {
	if e.err != nil {
		return
	}
	if e.typ != "histogram" {
		e.fail("family %s: Histogram on a %s family", e.cur, e.typ)
		return
	}
	bucketLabels := make([]Label, len(labels)+1)
	copy(bucketLabels, labels)
	for i, b := range s.Bounds {
		bucketLabels[len(labels)] = Label{"le", formatSampleValue(b)}
		e.sample(e.cur+"_bucket", bucketLabels, float64(s.Cumulative[i]))
	}
	bucketLabels[len(labels)] = Label{"le", "+Inf"}
	e.sample(e.cur+"_bucket", bucketLabels, float64(s.Cumulative[len(s.Cumulative)-1]))
	e.sample(e.cur+"_sum", labels, s.Sum)
	e.sample(e.cur+"_count", labels, float64(s.Count))
}

// escapeLabelValue applies the format's label-value escaping.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// formatSampleValue renders a float the way Prometheus expects, including
// the special values.
func formatSampleValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MaxFamilySeries bounds how many series one family may expose before
// LintExposition flags it. A family's label vocabulary is supposed to be a
// closed set (routes, tiers, dispositions); blowing past this bound is the
// signature of an unbounded label — a per-channel, per-job or per-request
// dimension — leaking into the exposition. The bound is generous: the
// largest legitimate family here (the per-route latency histogram) stays an
// order of magnitude under it.
const MaxFamilySeries = 512

// LintExposition validates a text exposition document: every family
// declares HELP then TYPE exactly once before its samples, names match the
// conventional shape, samples belong to the family whose metadata most
// recently opened (histograms may append _bucket/_sum/_count, and every
// _bucket carries an le label), label pairs are well-formed and
// comma-separated and name no label twice, every value parses as a float,
// no sample (name + label set) appears twice, and no family exposes more
// than MaxFamilySeries series. It returns the first violation, or nil for a
// clean document. An empty document is a violation: a scrape that returns
// nothing is a broken exporter, not a healthy quiet one.
func LintExposition(doc []byte) error {
	families := make(map[string]*familyState)
	var cur string
	samples := 0
	for ln, line := range strings.Split(string(doc), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: comment is neither HELP nor TYPE: %q", lineNo, line)
			}
			name := fields[2]
			if !familyNameRE.MatchString(name) {
				return fmt.Errorf("line %d: bad family name %q", lineNo, name)
			}
			st := families[name]
			if st == nil {
				st = &familyState{}
				families[name] = st
			}
			switch fields[1] {
			case "HELP":
				if st.help {
					return fmt.Errorf("line %d: duplicate HELP for family %s", lineNo, name)
				}
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					return fmt.Errorf("line %d: family %s has empty HELP text", lineNo, name)
				}
				st.help = true
			case "TYPE":
				if st.typ {
					return fmt.Errorf("line %d: duplicate TYPE for family %s", lineNo, name)
				}
				if !st.help {
					return fmt.Errorf("line %d: TYPE for family %s precedes its HELP", lineNo, name)
				}
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE for family %s carries no type", lineNo, name)
				}
				switch kind := strings.TrimSpace(fields[3]); kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
					st.kind = kind
				default:
					return fmt.Errorf("line %d: family %s has unknown type %q", lineNo, name, fields[3])
				}
				st.typ = true
				cur = name
			}
			continue
		}
		name, rest, err := splitSampleName(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := sampleFamily(name, families)
		if family == "" {
			return fmt.Errorf("line %d: sample %s has no declared family", lineNo, name)
		}
		st := families[family]
		if !st.help || !st.typ {
			return fmt.Errorf("line %d: sample %s precedes its family's HELP/TYPE", lineNo, name)
		}
		if family != cur {
			return fmt.Errorf("line %d: sample %s is not grouped under its family's metadata (current family %s)", lineNo, name, cur)
		}
		if name != family && st.kind != "histogram" && st.kind != "summary" {
			return fmt.Errorf("line %d: sample %s extends non-histogram family %s", lineNo, name, family)
		}
		labels, err := checkSampleRest(rest, st.kind == "histogram" && name == family+"_bucket")
		if err != nil {
			return fmt.Errorf("line %d: sample %s: %v", lineNo, name, err)
		}
		if st.series == nil {
			st.series = make(map[string]bool)
		}
		if st.series[name+labels] {
			return fmt.Errorf("line %d: duplicate sample %s%s", lineNo, name, labels)
		}
		st.series[name+labels] = true
		if len(st.series) > MaxFamilySeries {
			return fmt.Errorf("line %d: family %s exposes more than %d series — an unbounded label dimension (export a bounded aggregate, e.g. per-tier instead of per-channel)",
				lineNo, family, MaxFamilySeries)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition document")
	}
	for name, st := range families {
		if !st.help || !st.typ {
			return fmt.Errorf("family %s is missing %s", name, map[bool]string{true: "TYPE", false: "HELP"}[st.help])
		}
	}
	return nil
}

// familyState tracks one family's declared metadata and observed series
// during a lint pass.
type familyState struct {
	help, typ bool
	kind      string
	series    map[string]bool // sample name + label block, for dup/cardinality checks
}

// sampleFamily resolves which declared family a sample name belongs to: the
// name itself, or the name minus a histogram/summary suffix.
func sampleFamily(name string, families map[string]*familyState) string {
	if _, ok := families[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if _, ok := families[base]; ok {
				return base
			}
		}
	}
	return ""
}

// splitSampleName splits a sample line into its metric name and the
// remainder (label block + value).
func splitSampleName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", fmt.Errorf("malformed sample line %q", line)
	}
	name, rest = line[:i], line[i:]
	if !familyNameRE.MatchString(name) {
		return "", "", fmt.Errorf("bad metric name %q", name)
	}
	return name, rest, nil
}

// checkSampleRest validates the label block (if any) and the value of a
// sample line's remainder, returning the verbatim label block (the sample's
// series identity within its family; "" for an unlabeled sample). When
// bucket is set the sample is a histogram bucket and must carry le.
func checkSampleRest(rest string, bucket bool) (labels string, err error) {
	var names []string
	if strings.HasPrefix(rest, "{") {
		end, n, err := scanLabelBlock(rest)
		if err != nil {
			return "", err
		}
		labels, names, rest = rest[:end], n, rest[end:]
	}
	if bucket && !slices.Contains(names, "le") {
		return labels, fmt.Errorf("histogram bucket without an le label")
	}
	value := strings.TrimSpace(rest)
	if value == "" {
		return labels, fmt.Errorf("missing value")
	}
	if strings.ContainsAny(value, " \t") {
		return labels, fmt.Errorf("trailing data after value %q (timestamps are not part of this contract)", value)
	}
	switch value {
	case "NaN", "+Inf", "-Inf":
		return labels, nil
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return labels, fmt.Errorf("unparseable value %q", value)
	}
	return labels, nil
}

// scanLabelBlock validates `{name="value",...}` and returns the index just
// past the closing brace and the label names in order. Escapes inside values
// follow the format's rules; pairs are separated by commas (one trailing
// comma is allowed, as Prometheus's parser allows it), and no name may
// appear twice.
func scanLabelBlock(s string) (int, []string, error) {
	var names []string
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, names, nil
		}
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return 0, nil, fmt.Errorf("label without '=' in %q", s)
		}
		name := s[i : i+j]
		if !labelNameRE.MatchString(name) {
			return 0, nil, fmt.Errorf("bad label name %q", name)
		}
		if slices.Contains(names, name) {
			return 0, nil, fmt.Errorf("repeated label name %q", name)
		}
		names = append(names, name)
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++ // past opening quote
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value")
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\', '"', 'n':
					i += 2
					continue
				default:
					return 0, nil, fmt.Errorf("bad escape \\%c in label value", s[i+1])
				}
			}
			if s[i] == '"' {
				i++
				break
			}
			i++
		}
		switch {
		case i < len(s) && s[i] == ',':
			i++
		case i < len(s) && s[i] != '}':
			return 0, nil, fmt.Errorf("missing comma after label %s in %q", name, s)
		}
	}
}
