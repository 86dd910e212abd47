package repro

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcnet/internal/plot"
	"mcnet/internal/sweep"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateSeriesCSVConformingFile(t *testing.T) {
	// A file written by plot.CSV itself must validate, including NaN cells
	// (saturated points) encoded as empty strings.
	series := []plot.Series{
		{Label: "analysis Lm=256", X: []float64{1, 2, 3}, Y: []float64{10, 20, math.NaN()}},
		{Label: "simulation Lm=256", X: []float64{1, 2, 3}, Y: []float64{11, 22, 33}},
	}
	path := filepath.Join(t.TempDir(), "fig.csv")
	if err := writeSeriesCSV(path, series); err != nil {
		t.Fatal(err)
	}
	v := ValidateSeriesCSV(path, []string{"analysis Lm=256", "simulation Lm=256"}, 3)
	if len(v) != 0 {
		t.Fatalf("violations on a conforming file: %v", v)
	}
}

func TestValidateSeriesCSVViolations(t *testing.T) {
	cases := []struct {
		name, content string
		labels        []string
		rows          int
		want          string
	}{
		{"wrong header", "x,other\n1,2\n", []string{"a"}, 1, "schema declares"},
		{"extra column", "x,a,b\n1,2,3\n", []string{"a"}, 1, "columns"},
		{"row count", "x,a\n1,2\n", []string{"a"}, 3, "data rows"},
		{"literal NaN", "x,a\n1,NaN\n", []string{"a"}, 1, "not a finite number"},
		{"literal inf", "x,a\n1,inf\n", []string{"a"}, 1, "not a finite number"},
		{"x not increasing", "x,a\n2,1\n1,2\n", []string{"a"}, 2, "does not increase"},
		{"empty x", "x,a\n,1\n", []string{"a"}, 1, "empty x cell"},
		{"all-empty column", "x,a\n1,\n2,\n", []string{"a"}, 2, "no finite values"},
		{"unreadable", "", nil, 0, ""}, // handled below
	}
	for _, c := range cases[:len(cases)-1] {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, "f.csv", c.content)
			v := ValidateSeriesCSV(path, c.labels, c.rows)
			if len(v) == 0 {
				t.Fatalf("no violations, want one matching %q", c.want)
			}
			if !strings.Contains(strings.Join(v, "\n"), c.want) {
				t.Errorf("violations = %v, want one matching %q", v, c.want)
			}
		})
	}
	if v := ValidateSeriesCSV(filepath.Join(t.TempDir(), "missing.csv"), nil, 0); len(v) == 0 {
		t.Error("missing file produced no violation")
	}
}

// TestValidateSeriesCSVRequiredColumns: every series column is required to
// carry data, the gated ones and the reference curves alike. The file has
// the shape of an ablation whose grid lies wholly past the paper-literal
// model's saturation: its calibrated model and simulation columns are
// full and its paper-literal column is empty.
func TestValidateSeriesCSVRequiredColumns(t *testing.T) {
	labels := []string{"model calibrated", "model paper-literal", "simulation"}
	path := writeFile(t, "f.csv", "x,model calibrated,model paper-literal,simulation\n1,10,,9\n2,20,,21\n")
	v := ValidateSeriesCSV(path, labels, 2)
	if len(v) != 1 || !strings.Contains(v[0], `"model paper-literal" has no finite values`) {
		t.Errorf("violations = %v, want the empty paper-literal column flagged", v)
	}
	path = writeFile(t, "g.csv", "x,model calibrated,model paper-literal,simulation\n1,10,12,9\n2,20,,21\n")
	if v := ValidateSeriesCSV(path, labels, 2); len(v) != 0 {
		t.Errorf("a column with one finite value flagged: %v", v)
	}
}

// TestValidateSeriesCSVSanitizedLabels: declared labels carrying characters
// the CSV writer rewrites (commas) must match the written header.
func TestValidateSeriesCSVSanitizedLabels(t *testing.T) {
	series := []plot.Series{{Label: "a,b", X: []float64{1}, Y: []float64{2}}}
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := writeSeriesCSV(path, series); err != nil {
		t.Fatal(err)
	}
	if v := ValidateSeriesCSV(path, []string{"a,b"}, 1); len(v) != 0 {
		t.Errorf("sanitized label mismatch: %v", v)
	}
}

func TestValidateRawCSVConformingFile(t *testing.T) {
	// Build a real raw CSV through the sweep engine's own sink.
	dir := t.TempDir()
	spec := sweep.Spec{
		Name: "probe", Orgs: []string{"org1"},
		Messages: []sweep.MessageGeometry{{Flits: 32, FlitBytes: 256}},
		Loads:    sweep.Loads{Lambdas: []float64{0.0001, 0.0002}},
		Warmup:   50, Measure: 200, Drain: 50,
	}
	sink, closeFn, err := sweep.NewSpecCSVSink(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Sinks: []sweep.Sink{sink}}
	if _, err := eng.Run(spec); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	rows, v := ValidateRawCSV(filepath.Join(dir, "probe.csv"))
	if len(v) != 0 {
		t.Fatalf("violations on an engine-written file: %v", v)
	}
	if rows != 2 {
		t.Errorf("rows = %d, want 2", rows)
	}
}

func TestValidateRawCSVViolations(t *testing.T) {
	head := strings.Join(sweep.CSVHeader, ",")
	pad := strings.Repeat(",0", len(sweep.CSVHeader)-1)
	cases := []struct {
		name, content, want string
	}{
		{"foreign header", "a,b,c\n1,2,3\n", "sweep schema"},
		{"index out of order", head + "\n" + "5" + pad + "\n", "out of order"},
		{"short row", head + "\n0,org1\n", "cells"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, "raw.csv", c.content)
			_, v := ValidateRawCSV(path)
			if !strings.Contains(strings.Join(v, "\n"), c.want) {
				t.Errorf("violations = %v, want one matching %q", v, c.want)
			}
		})
	}
}

func TestValidateReport(t *testing.T) {
	if v := validateReport("Table 1\n..."); len(v) != 0 {
		t.Errorf("non-empty report flagged: %v", v)
	}
	if v := validateReport("  \n\t"); len(v) == 0 {
		t.Error("blank report not flagged")
	}
}
