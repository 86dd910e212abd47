package repro

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"mcnet/internal/plot"
	"mcnet/internal/sweep"
)

// ValidateSeriesCSV checks a study's series CSV (as written by plot.CSV)
// against the manifest entry's declared schema and returns every violation
// found (nil means the file conforms). The contract:
//
//   - the header is exactly "x" followed by the declared series labels
//     (after plot's label sanitization), in order;
//   - the file has exactly wantRows data rows;
//   - every cell is either empty (a saturated/undelivered point, the CSV
//     encoding of NaN) or a finite float — the literal strings "NaN" and
//     "inf" are schema violations in result columns;
//   - the x column is fully populated and strictly increasing;
//   - every series column carries at least one finite value: a fully
//     empty column means the study silently produced nothing, whether it
//     is a gated column (the agreement check would be vacuous) or a
//     reference curve whose grid lies wholly past its saturation.
func ValidateSeriesCSV(path string, labels []string, wantRows int) []string {
	header, rows, violations := readCSV(path)
	if violations != nil {
		return violations
	}
	want := make([]string, 0, len(labels)+1)
	want = append(want, "x")
	for _, l := range labels {
		want = append(want, plot.SanitizeLabel(l))
	}
	if len(header) != len(want) {
		violations = append(violations, fmt.Sprintf("header has %d columns, schema declares %d", len(header), len(want)))
	}
	for i := 0; i < len(header) && i < len(want); i++ {
		if header[i] != want[i] {
			violations = append(violations, fmt.Sprintf("column %d is %q, schema declares %q", i, header[i], want[i]))
		}
	}
	if len(rows) != wantRows {
		violations = append(violations, fmt.Sprintf("%d data rows, schema declares %d", len(rows), wantRows))
	}
	finiteInCol := make([]bool, len(header))
	prevX := math.Inf(-1)
	for ri, row := range rows {
		if len(row) != len(header) {
			violations = append(violations, fmt.Sprintf("row %d has %d cells, header has %d", ri+1, len(row), len(header)))
			continue
		}
		for ci, cell := range row {
			if cell == "" {
				if ci == 0 {
					violations = append(violations, fmt.Sprintf("row %d: empty x cell", ri+1))
				}
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				violations = append(violations, fmt.Sprintf("row %d, column %q: %q is not a finite number", ri+1, header[ci], cell))
				continue
			}
			if ci == 0 {
				if v <= prevX {
					violations = append(violations, fmt.Sprintf("row %d: x=%g does not increase over %g", ri+1, v, prevX))
				}
				prevX = v
			}
			finiteInCol[ci] = true
		}
	}
	for ci := 1; ci < len(finiteInCol); ci++ {
		if !finiteInCol[ci] {
			violations = append(violations, fmt.Sprintf("column %q has no finite values", header[ci]))
		}
	}
	return violations
}

// ValidateRawCSV structurally checks a raw sweep CSV (as written by
// sweep.CSVSink): the header starts with the engine's column list, every
// row matches the header width, the index column counts 0,1,2,… and the
// numeric result columns parse (raw sweep rows encode NaN as the literal
// "NaN", which is legitimate there — a saturated run that delivered
// nothing). Returns every violation found; rows is the data row count.
func ValidateRawCSV(path string) (rows int, violations []string) {
	header, data, violations := readCSV(path)
	if violations != nil {
		return 0, violations
	}
	for i, want := range sweep.CSVHeader {
		if i >= len(header) || header[i] != want {
			violations = append(violations, fmt.Sprintf("header does not start with the sweep schema (column %d: want %q)", i, want))
			break
		}
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	for ri, row := range data {
		if len(row) != len(header) {
			violations = append(violations, fmt.Sprintf("row %d has %d cells, header has %d", ri+1, len(row), len(header)))
			continue
		}
		if idx, err := strconv.Atoi(row[col["index"]]); err != nil || idx != ri {
			violations = append(violations, fmt.Sprintf("row %d: index %q out of order", ri+1, row[col["index"]]))
		}
		for _, name := range []string{"lambda", "analysis", "sim_latency", "sim_source_wait", "sim_pout"} {
			cell := row[col[name]]
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				violations = append(violations, fmt.Sprintf("row %d, column %q: %q is not numeric", ri+1, name, cell))
			}
		}
		if _, err := strconv.Atoi(row[col["delivered"]]); err != nil {
			violations = append(violations, fmt.Sprintf("row %d: delivered %q is not an integer", ri+1, row[col["delivered"]]))
		}
	}
	return len(data), violations
}

// readCSV loads a CSV file into header + data rows, folding read errors
// into violations.
func readCSV(path string) (header []string, rows [][]string, violations []string) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, []string{fmt.Sprintf("unreadable: %v", err)}
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1 // width checked per row for better messages
	all, err := r.ReadAll()
	if err != nil {
		return nil, nil, []string{fmt.Sprintf("malformed CSV: %v", err)}
	}
	if len(all) == 0 {
		return nil, nil, []string{"empty file (no header)"}
	}
	return all[0], all[1:], nil
}

// validateReport checks a report entry's text output: non-empty,
// non-blank.
func validateReport(text string) []string {
	if strings.TrimSpace(text) == "" {
		return []string{"report produced no output"}
	}
	return nil
}
