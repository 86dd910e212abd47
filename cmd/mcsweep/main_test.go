package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcnet/internal/sweep"
)

// tinySpecFile writes a minimal fast sweep spec and returns its path.
func tinySpecFile(t *testing.T, dir string) string {
	t.Helper()
	spec := sweep.Spec{
		Name:   "tiny",
		Orgs:   []string{"m=4:2x1"},
		Loads:  sweep.Loads{Lambdas: []float64{1e-4}},
		Warmup: 10, Measure: 60, Drain: 10,
		Model: "none",
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagHandling(t *testing.T) {
	dir := t.TempDir()
	specPath := tinySpecFile(t, dir)
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the returned error ("" = success)
		wantOut string // substring of stdout
	}{
		{
			name:    "missing spec",
			args:    nil,
			wantErr: "missing -spec",
		},
		{
			name:    "unknown builtin",
			args:    []string{"-spec", "no-such-sweep"},
			wantErr: "no such file or builtin",
		},
		{
			name:    "malformed spec file",
			args:    []string{"-spec", badJSON},
			wantErr: "parsing",
		},
		{
			name:    "bad flag",
			args:    []string{"-definitely-not-a-flag"},
			wantErr: "invalid arguments",
		},
		{
			name:    "invalid spec contents",
			args:    []string{"-spec", "fig3-m32", "-measure", "0", "-dry-run"},
			wantErr: "measure phase must be positive",
		},
		{
			name: "help exits cleanly",
			args: []string{"-h"},
		},
		{
			name:    "dry run builtin",
			args:    []string{"-spec", "fig3-m32", "-dry-run"},
			wantOut: `sweep "fig3-m32" expands to:`,
		},
		{
			name:    "dry run counts jobs",
			args:    []string{"-spec", "fig3-m32", "-dry-run"},
			wantOut: "20 jobs",
		},
		{
			name:    "print spec applies overrides",
			args:    []string{"-spec", specPath, "-print-spec", "-measure", "123", "-seed", "9", "-reps", "2"},
			wantOut: `"measure": 123`,
		},
		{
			name:    "workload axes override",
			args:    []string{"-spec", specPath, "-print-spec", "-arrivals", "poisson,mmpp:16:32", "-sizes", "bimodal:8:128:0.2"},
			wantOut: `"mmpp:16:32"`,
		},
		{
			name:    "bad arrival override",
			args:    []string{"-spec", specPath, "-dry-run", "-arrivals", "sometimes"},
			wantErr: "unknown arrival process",
		},
		{
			name:    "bad size override",
			args:    []string{"-spec", specPath, "-dry-run", "-sizes", "pareto:3"},
			wantErr: "unknown size distribution",
		},
		{
			name:    "dry run shows workload columns",
			args:    []string{"-spec", "bursty", "-dry-run"},
			wantOut: "mmpp:64:64",
		},
		{
			name:    "links axis override",
			args:    []string{"-spec", specPath, "-print-spec", "-links", "uniform,icn2=0.04/0.02/0.004"},
			wantOut: `"icn2=0.04/0.02/0.004"`,
		},
		{
			name:    "bad links override",
			args:    []string{"-spec", specPath, "-dry-run", "-links", "icn3=1/1/1"},
			wantErr: "unknown tier",
		},
		{
			name:    "dry run shows links axis",
			args:    []string{"-spec", "hetero-links", "-dry-run"},
			wantOut: "icn1=0.01/0.005/0.001",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%v) error = %v, want substring %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("run(%v) stdout = %q, want substring %q", tc.args, stdout.String(), tc.wantOut)
			}
		})
	}
}

// TestResumeMidFileWithWorkloadColumns reproduces an interrupted workload
// sweep: the cache holds outcomes for only the first half of the grid (the
// sweep died mid-file), and a -resume run must complete the rest and emit a
// CSV byte-identical to an uninterrupted fresh run — with the opt-in
// workload columns enabled, since the spec sweeps the arrival axis.
func TestResumeMidFileWithWorkloadColumns(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		Name:     "wresume",
		Orgs:     []string{"m=4:2x1"},
		Arrivals: []string{"poisson", "mmpp:4:8"},
		Loads:    sweep.Loads{Lambdas: []float64{1e-4, 2e-4}},
		Warmup:   10, Measure: 60, Drain: 10,
		Model: "none",
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "wresume.json")
	if err := os.WriteFile(specPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// The reference: one uninterrupted run.
	freshOut := filepath.Join(dir, "fresh")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", freshOut}, &stdout, &stderr); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	freshCSV, err := os.ReadFile(filepath.Join(freshOut, "wresume.csv"))
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(freshCSV), "\n", 2)[0]
	if !strings.HasSuffix(head, "arrival,size_dist") {
		t.Fatalf("workload sweep CSV header %q lacks the workload columns", head)
	}

	// The interrupted run: seed the resume directory's cache with outcomes
	// for only the first half of the expanded grid.
	jobs, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("grid = %d jobs, want 4", len(jobs))
	}
	resumeOut := filepath.Join(dir, "resumed")
	cache, err := sweep.NewDirCache(filepath.Join(resumeOut, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	half := &sweep.Engine{Cache: cache}
	if _, err := half.RunJobs(context.Background(), spec, jobs[:len(jobs)/2]); err != nil {
		t.Fatalf("seeding half the cache: %v", err)
	}

	stdout.Reset()
	if err := run([]string{"-spec", specPath, "-out", resumeOut, "-resume"}, &stdout, &stderr); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !strings.Contains(stdout.String(), "2 executed, 2 cache hits") {
		t.Fatalf("resume summary = %q, want 2 executed / 2 cache hits", stdout.String())
	}
	resumedCSV, err := os.ReadFile(filepath.Join(resumeOut, "wresume.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshCSV, resumedCSV) {
		t.Fatalf("mid-file resume CSV differs from the fresh run:\n--- fresh ---\n%s--- resumed ---\n%s",
			freshCSV, resumedCSV)
	}
}

// TestRunExecuteAndResume runs a tiny sweep end to end, then resumes it and
// checks the second pass is pure cache hits with byte-identical output.
func TestRunExecuteAndResume(t *testing.T) {
	dir := t.TempDir()
	specPath := tinySpecFile(t, dir)
	out := filepath.Join(dir, "results")

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", out, "-workers", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if !strings.Contains(stdout.String(), "1 executed, 0 cache hits") {
		t.Fatalf("first run summary = %q, want 1 executed / 0 hits", stdout.String())
	}
	csv1, err := os.ReadFile(filepath.Join(out, "tiny.csv"))
	if err != nil {
		t.Fatalf("first run wrote no CSV: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "tiny.jsonl")); err != nil {
		t.Fatalf("first run wrote no JSONL: %v", err)
	}

	stdout.Reset()
	if err := run([]string{"-spec", specPath, "-out", out, "-resume"}, &stdout, &stderr); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !strings.Contains(stdout.String(), "0 executed, 1 cache hits") {
		t.Fatalf("resume summary = %q, want 0 executed / 1 hit", stdout.String())
	}
	csv2, err := os.ReadFile(filepath.Join(out, "tiny.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("resumed CSV differs from original:\n--- first ---\n%s--- resumed ---\n%s", csv1, csv2)
	}

	// Without -resume the grid's cache entries are invalidated and re-run.
	stdout.Reset()
	if err := run([]string{"-spec", specPath, "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if !strings.Contains(stdout.String(), "1 executed, 0 cache hits") {
		t.Fatalf("re-run summary = %q, want fresh execution", stdout.String())
	}

	// The default-workload spec keeps the pre-workload CSV schema …
	csv3, err := os.ReadFile(filepath.Join(out, "tiny.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(string(csv3), "\n", 2)[0], "arrival") {
		t.Fatalf("default-workload CSV unexpectedly grew workload columns:\n%s", csv3)
	}

	// … and a spec sweeping the workload axes gains the workload columns.
	var wout bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", out, "-arrivals", "mmpp:4:8"}, &wout, &stderr); err != nil {
		t.Fatalf("workload run: %v", err)
	}
	wcsv, err := os.ReadFile(filepath.Join(out, "tiny.csv"))
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(wcsv), "\n", 2)[0]
	if !strings.HasSuffix(head, "arrival,size_dist") {
		t.Fatalf("workload CSV header %q does not end with the workload columns", head)
	}
	if !strings.Contains(string(wcsv), "mmpp:4:8,fixed") {
		t.Fatalf("workload CSV rows missing axis values:\n%s", wcsv)
	}
}

// twoJobSpecFile writes a fast two-job sweep spec and returns its path.
func twoJobSpecFile(t *testing.T, dir string) string {
	t.Helper()
	spec := sweep.Spec{
		Name:   "two",
		Orgs:   []string{"m=4:2x1"},
		Loads:  sweep.Loads{Lambdas: []float64{1e-4, 2e-4}},
		Warmup: 10, Measure: 60, Drain: 10,
		Model: "none",
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "two.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTelemetryReportsPerExecutedJob: -telemetry writes one report per
// executed job under <out>/telemetry/<spec>/, named by the job key, and a
// -resume run that is all cache hits writes none.
func TestTelemetryReportsPerExecutedJob(t *testing.T) {
	dir := t.TempDir()
	specPath := twoJobSpecFile(t, dir)
	out := filepath.Join(dir, "results")
	teleDir := filepath.Join(out, "telemetry", "two")

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", out, "-telemetry"}, &stdout, &stderr); err != nil {
		t.Fatalf("telemetry run: %v", err)
	}
	if !strings.Contains(stdout.String(), "wrote 2 telemetry reports") {
		t.Fatalf("telemetry run stdout = %q, want 2 reports", stdout.String())
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(teleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(jobs) {
		t.Fatalf("%d telemetry files, want one per job (%d)", len(entries), len(jobs))
	}
	for _, j := range jobs {
		b, err := os.ReadFile(filepath.Join(teleDir, j.Key()[:12]+".json"))
		if err != nil {
			t.Fatalf("job %d: %v", j.Index, err)
		}
		var rep map[string]any
		if err := json.Unmarshal(b, &rep); err != nil || len(rep) == 0 {
			t.Fatalf("job %d: report %q does not decode to an object: %v", j.Index, b, err)
		}
	}

	if err := os.RemoveAll(teleDir); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run([]string{"-spec", specPath, "-out", out, "-telemetry", "-resume"}, &stdout, &stderr); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !strings.Contains(stdout.String(), "0 executed, 2 cache hits") {
		t.Fatalf("resume summary = %q, want all cache hits", stdout.String())
	}
	if entries, err := os.ReadDir(teleDir); err != nil || len(entries) != 0 {
		t.Fatalf("all-hit resume wrote %d telemetry files (%v), want none", len(entries), err)
	}
}

// TestProgressTicker: without -v, stderr carries one in-place ticker line
// per result, in job order, and the last reads "N/N jobs (H cache hits…".
func TestProgressTicker(t *testing.T) {
	dir := t.TempDir()
	specPath := twoJobSpecFile(t, dir)
	out := filepath.Join(dir, "results")
	ticks := func(stderr string) []string {
		var lines []string
		for _, l := range strings.Split(strings.TrimRight(stderr, "\n"), "\r") {
			if l = strings.TrimRight(l, " "); l != "" {
				lines = append(lines, l)
			}
		}
		return lines
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-spec", specPath, "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("first run: %v", err)
	}
	lines := ticks(stderr.String())
	if len(lines) != 2 {
		t.Fatalf("ticker lines %q, want one per job", lines)
	}
	for i, l := range lines {
		if want := fmt.Sprintf("%d/2 jobs (0 cache hits", i+1); !strings.HasPrefix(l, want) {
			t.Fatalf("ticker line %d = %q, want prefix %q", i, l, want)
		}
	}

	stderr.Reset()
	if err := run([]string{"-spec", specPath, "-out", out, "-resume"}, &stdout, &stderr); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	lines = ticks(stderr.String())
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "2/2 jobs (2 cache hits") {
		t.Fatalf("resume ticker ends %q, want 2/2 jobs (2 cache hits…", last)
	}
}
