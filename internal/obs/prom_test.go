package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// buildExposition writes a representative document through the writer: a
// labeled counter, a gauge, and a histogram with labels.
func buildExposition(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewExposition(&buf)
	e.Family("test_requests_total", "counter", "Requests served, by route.")
	e.Sample([]Label{{"route", "POST /v1/analyze"}}, 42)
	e.Sample([]Label{{"route", "GET /healthz"}}, 7)
	e.Family("test_queue_depth", "gauge", "Jobs waiting for a worker.")
	e.Sample(nil, 3)
	e.Family("test_latency_seconds", "histogram", "Request latency.")
	h := NewHistogram([]float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)
	e.Histogram([]Label{{"route", "POST /v1/analyze"}}, h.Snapshot())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExpositionIsLintClean(t *testing.T) {
	doc := buildExposition(t)
	if err := LintExposition(doc); err != nil {
		t.Fatalf("writer output fails its own lint: %v\n%s", err, doc)
	}
	s := string(doc)
	for _, want := range []string{
		"# HELP test_requests_total ",
		"# TYPE test_requests_total counter",
		`test_requests_total{route="POST /v1/analyze"} 42`,
		"test_queue_depth 3",
		`test_latency_seconds_bucket{route="POST /v1/analyze",le="0.001"} 1`,
		`test_latency_seconds_bucket{route="POST /v1/analyze",le="+Inf"} 3`,
		"test_latency_seconds_count", "test_latency_seconds_sum",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("exposition missing %q:\n%s", want, s)
		}
	}
}

func TestExpositionWriterErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Exposition)
	}{
		{"bad family name", func(e *Exposition) { e.Family("Bad-Name", "counter", "x") }},
		{"bad type", func(e *Exposition) { e.Family("ok_total", "summary", "x") }},
		{"duplicate family", func(e *Exposition) {
			e.Family("dup_total", "counter", "x")
			e.Sample(nil, 1)
			e.Family("dup_total", "counter", "y")
		}},
		{"sample before family", func(e *Exposition) { e.Sample(nil, 1) }},
		{"bad label name", func(e *Exposition) {
			e.Family("ok_total", "counter", "x")
			e.Sample([]Label{{"bad-label", "v"}}, 1)
		}},
		{"histogram on counter", func(e *Exposition) {
			e.Family("ok_total", "counter", "x")
			e.Histogram(nil, NewHistogram([]float64{1}).Snapshot())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExposition(&bytes.Buffer{})
			tc.build(e)
			if e.Err() == nil {
				t.Fatal("writer accepted a malformed document")
			}
		})
	}
}

func TestLabelValueEscaping(t *testing.T) {
	var buf bytes.Buffer
	e := NewExposition(&buf)
	e.Family("esc_total", "counter", "escaping")
	e.Sample([]Label{{"v", "a\"b\\c\nd"}}, 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{v="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped sample %q missing from:\n%s", want, buf.String())
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("escaped document fails lint: %v", err)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"empty", ""},
		{"no samples", "# HELP a_total x\n# TYPE a_total counter\n"},
		{"missing TYPE", "# HELP a_total x\na_total 1\n"},
		{"missing HELP", "# TYPE a_total counter\na_total 1\n"},
		{"undeclared sample", "# HELP a_total x\n# TYPE a_total counter\nb_total 1\n"},
		{"duplicate family", "# HELP a_total x\n# TYPE a_total counter\na_total 1\n# HELP a_total x\n# TYPE a_total counter\na_total 2\n"},
		{"bad family name", "# HELP A_total x\n# TYPE A_total counter\nA_total 1\n"},
		{"bad value", "# HELP a_total x\n# TYPE a_total counter\na_total oops\n"},
		{"bad label", `# HELP a_total x` + "\n" + `# TYPE a_total counter` + "\n" + `a_total{0bad="v"} 1` + "\n"},
		{"unterminated labels", `# HELP a_total x` + "\n" + `# TYPE a_total counter` + "\n" + `a_total{x="v" 1` + "\n"},
		{"suffix on counter", "# HELP a_total x\n# TYPE a_total counter\na_total_bucket 1\n"},
		{"ungrouped sample", "# HELP a_total x\n# TYPE a_total counter\n# HELP b_total y\n# TYPE b_total counter\na_total 1\n"},
		{"empty help", "# HELP a_total \n# TYPE a_total counter\na_total 1\n"},
		{"duplicate bare sample", "# HELP a_total x\n# TYPE a_total counter\na_total 1\na_total 2\n"},
		{"duplicate labeled sample", "# HELP a_total x\n# TYPE a_total counter\n" +
			`a_total{t="x"} 1` + "\n" + `a_total{t="x"} 2` + "\n"},
		{"labels without comma", "# HELP a_total x\n# TYPE a_total counter\n" +
			`a_total{a="1"b="2"} 1` + "\n"},
		{"repeated label name", "# HELP a_total x\n# TYPE a_total counter\n" +
			`a_total{a="1",a="2"} 1` + "\n"},
		{"bucket without le", "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{route="r"} 1` + "\n" + `h_sum{route="r"} 1` + "\n" + `h_count{route="r"} 1` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := LintExposition([]byte(tc.doc)); err == nil {
				t.Fatalf("lint accepted:\n%s", tc.doc)
			}
		})
	}
}

// TestLintCardinalityCap feeds a family whose label dimension is unbounded
// (one series per "channel") past MaxFamilySeries and expects rejection —
// this is the guard that keeps per-channel telemetry out of the exposition.
// Distinct label values on separate lines below the cap stay legal.
func TestLintCardinalityCap(t *testing.T) {
	var b strings.Builder
	b.WriteString("# HELP chan_busy_total x\n# TYPE chan_busy_total counter\n")
	for i := 0; i <= MaxFamilySeries; i++ {
		fmt.Fprintf(&b, "chan_busy_total{channel=\"%d\"} 1\n", i)
	}
	err := LintExposition([]byte(b.String()))
	if err == nil {
		t.Fatalf("lint accepted %d series in one family", MaxFamilySeries+1)
	}
	if !strings.Contains(err.Error(), "unbounded label dimension") {
		t.Errorf("cardinality error does not name the failure mode: %v", err)
	}

	var ok strings.Builder
	ok.WriteString("# HELP tier_busy_total x\n# TYPE tier_busy_total counter\n")
	for _, tier := range []string{"icn1", "ecn1", "conc", "icn2"} {
		fmt.Fprintf(&ok, "tier_busy_total{tier=%q} 1\n", tier)
	}
	if err := LintExposition([]byte(ok.String())); err != nil {
		t.Errorf("bounded tier labels rejected: %v", err)
	}
}

func TestLintAcceptsSpecialValues(t *testing.T) {
	doc := "# HELP a_ratio x\n# TYPE a_ratio gauge\na_ratio NaN\n" +
		"# HELP b_ratio x\n# TYPE b_ratio gauge\nb_ratio +Inf\n"
	if err := LintExposition([]byte(doc)); err != nil {
		t.Fatalf("special float values rejected: %v", err)
	}
}
