package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream builds a minimal go test -json stream with the given benchmark
// results (name → ns/op).
func stream(results map[string]float64) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"mcnet/internal/bench"}` + "\n")
	for name, ns := range results {
		fmt.Fprintf(&b, `{"Action":"run","Test":"%s"}`+"\n", name)
		fmt.Fprintf(&b, `{"Action":"output","Test":"%s","Output":"%s-8\n"}`+"\n", name, name)
		fmt.Fprintf(&b, `{"Action":"output","Test":"%s","Output":"     100\t%12.1f ns/op\t      24 B/op\t       1 allocs/op\n"}`+"\n", name, ns)
	}
	b.WriteString(`{"Action":"pass","Package":"mcnet/internal/bench"}` + "\n")
	return b.String()
}

func writeStream(t *testing.T, dir, name string, results map[string]float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(stream(results)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseSyntheticStream(t *testing.T) {
	benches, err := Parse(strings.NewReader(stream(map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkBar": 250.5,
	})))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	byName := map[string]Bench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	if b := byName["BenchmarkFoo"]; b.NsOp != 100 || b.BytesOp != 24 || b.AllocsOp != 1 {
		t.Fatalf("BenchmarkFoo parsed as %+v", b)
	}
	if b := byName["BenchmarkBar"]; b.NsOp != 250.5 {
		t.Fatalf("BenchmarkBar ns/op = %v, want 250.5", b.NsOp)
	}
}

// TestGateFailsOnSyntheticSlowdown is the acceptance proof that the gate is
// live: a 2× slowdown of one benchmark must fail at the CI threshold.
func TestGateFailsOnSyntheticSlowdown(t *testing.T) {
	dir := t.TempDir()
	old := writeStream(t, dir, "old.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkBar": 1000,
	})
	slow := writeStream(t, dir, "slow.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkBar": 2000,
	})

	var stdout, stderr bytes.Buffer
	err := run([]string{"-threshold", "1.25", old, slow}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("2x slowdown passed the gate; output:\n%s", stdout.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkBar") || !strings.Contains(err.Error(), "2.00×") {
		t.Fatalf("regression error %q does not name the offender and ratio", err)
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Fatalf("report does not mark the regression:\n%s", stdout.String())
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeStream(t, dir, "old.json", map[string]float64{"BenchmarkFoo": 100})
	// 20% slower, 25% allowed; plus a brand-new benchmark with no baseline,
	// which must not fail the gate.
	new_ := writeStream(t, dir, "new.json", map[string]float64{
		"BenchmarkFoo": 120, "BenchmarkFresh": 9999,
	})
	var stdout, stderr bytes.Buffer
	if err := run([]string{old, new_}, &stdout, &stderr); err != nil {
		t.Fatalf("within-threshold run failed the gate: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "no baseline") {
		t.Fatalf("report does not flag the baseline-less benchmark:\n%s", stdout.String())
	}
}

// res is one synthetic benchmark measurement; allocs < 0 renders a result
// line without -benchmem columns, the legacy artifact shape.
type res struct {
	ns     float64
	allocs float64
}

// streamAllocs builds a go test -json stream with explicit allocs/op values.
func streamAllocs(results map[string]res) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"mcnet/internal/bench"}` + "\n")
	for name, r := range results {
		fmt.Fprintf(&b, `{"Action":"run","Test":"%s"}`+"\n", name)
		fmt.Fprintf(&b, `{"Action":"output","Test":"%s","Output":"%s-8\n"}`+"\n", name, name)
		line := fmt.Sprintf(`     100\t%12.1f ns/op`, r.ns)
		if r.allocs >= 0 {
			line += fmt.Sprintf(`\t      24 B/op\t%8.0f allocs/op`, r.allocs)
		}
		fmt.Fprintf(&b, `{"Action":"output","Test":"%s","Output":"%s\n"}`+"\n", name, line)
	}
	b.WriteString(`{"Action":"pass","Package":"mcnet/internal/bench"}` + "\n")
	return b.String()
}

func writeAllocStream(t *testing.T, dir, name string, results map[string]res) string {
	t.Helper()
	return mustWrite(t, dir, name, streamAllocs(results))
}

// TestAllocGateFailsOnAllocOnlyRegression: a benchmark whose speed is
// unchanged but whose allocation count grew beyond the alloc threshold must
// fail the gate — allocs/op is the leading indicator of a pooling
// regression, and it moves before ns/op does on a fast machine.
func TestAllocGateFailsOnAllocOnlyRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeAllocStream(t, dir, "old.json", map[string]res{
		"BenchmarkFoo": {ns: 100, allocs: 100}, "BenchmarkBar": {ns: 100, allocs: 50},
	})
	leaky := writeAllocStream(t, dir, "leaky.json", map[string]res{
		"BenchmarkFoo": {ns: 100, allocs: 200}, "BenchmarkBar": {ns: 100, allocs: 50},
	})
	var stdout, stderr bytes.Buffer
	err := run([]string{old, leaky}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("2x alloc growth passed the gate; output:\n%s", stdout.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkFoo") || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("error %q does not name the offender and the allocs/op unit", err)
	}
	if strings.Contains(err.Error(), "BenchmarkBar") {
		t.Fatalf("error %q blames the unchanged benchmark", err)
	}
	if !strings.Contains(stdout.String(), "ALLOC-REGRESSION") {
		t.Fatalf("report does not mark the alloc regression:\n%s", stdout.String())
	}

	// The same artifacts pass with a wider alloc threshold: the knob is live
	// and independent of -threshold.
	stdout.Reset()
	if err := run([]string{"-alloc-threshold", "2.5", old, leaky}, &stdout, &stderr); err != nil {
		t.Fatalf("2x alloc growth failed the gate at alloc-threshold 2.5: %v", err)
	}
}

// TestAllocGateZeroBaselineStrict: a zero-alloc baseline has no ratio — any
// new allocation is a regression of exactly the property the pools
// guarantee.
func TestAllocGateZeroBaselineStrict(t *testing.T) {
	dir := t.TempDir()
	old := writeAllocStream(t, dir, "old.json", map[string]res{"BenchmarkHot": {ns: 100, allocs: 0}})
	leaky := writeAllocStream(t, dir, "leaky.json", map[string]res{"BenchmarkHot": {ns: 100, allocs: 1}})
	var stdout, stderr bytes.Buffer
	err := run([]string{old, leaky}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "zero-alloc baseline broken") {
		t.Fatalf("1 alloc on a zero-alloc baseline did not fail the gate: %v\n%s", err, stdout.String())
	}
	// 0 → 0 stays clean.
	stdout.Reset()
	if err := run([]string{old, old}, &stdout, &stderr); err != nil {
		t.Fatalf("zero-alloc baseline fails against itself: %v", err)
	}
}

// TestAllocGateSkipsAllocsAbsentBaseline: a legacy baseline captured without
// -benchmem carries no allocs/op; the alloc gate must skip (with a notice),
// not fail — otherwise the first PR after introducing the gate could never
// land.
func TestAllocGateSkipsAllocsAbsentBaseline(t *testing.T) {
	dir := t.TempDir()
	legacy := writeAllocStream(t, dir, "legacy.json", map[string]res{"BenchmarkFoo": {ns: 100, allocs: -1}})
	new_ := writeAllocStream(t, dir, "new.json", map[string]res{"BenchmarkFoo": {ns: 100, allocs: 500}})
	var stdout, stderr bytes.Buffer
	if err := run([]string{legacy, new_}, &stdout, &stderr); err != nil {
		t.Fatalf("allocs-absent baseline failed the gate: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "alloc gate skipped") {
		t.Fatalf("report does not notice the skipped alloc comparison:\n%s", stdout.String())
	}
	// Symmetric: the new run missing allocs/op skips too.
	stdout.Reset()
	if err := run([]string{new_, legacy}, &stdout, &stderr); err != nil {
		t.Fatalf("allocs-absent new run failed the gate: %v\n%s", err, stdout.String())
	}
}

// TestRemovedBenchmarkReportedNotFailed: a benchmark present in the
// baseline but absent from the new run must be reported (per row and in the
// summary count) without failing the gate — a removal lands together with
// its baseline refresh, like an addition does.
func TestRemovedBenchmarkReportedNotFailed(t *testing.T) {
	dir := t.TempDir()
	old := writeStream(t, dir, "old.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkGone": 500,
	})
	new_ := writeStream(t, dir, "new.json", map[string]float64{"BenchmarkFoo": 100})
	var stdout, stderr bytes.Buffer
	if err := run([]string{old, new_}, &stdout, &stderr); err != nil {
		t.Fatalf("removed benchmark failed the gate: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "BenchmarkGone") || !strings.Contains(out, "(removed)") {
		t.Fatalf("report does not flag the removed benchmark:\n%s", out)
	}
	if !strings.Contains(out, "1 removed from the new run") {
		t.Fatalf("summary does not count the removed benchmark:\n%s", out)
	}
}

// TestUnmeasurableBaselineFailsGate: a zero ns/op entry makes the ratio Inf
// or NaN; NaN compares false against any threshold, so before the guard a
// broken artifact sailed through the gate. It must fail loudly instead.
func TestUnmeasurableBaselineFailsGate(t *testing.T) {
	dir := t.TempDir()
	old := writeStream(t, dir, "old.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkZero": 0,
	})
	new_ := writeStream(t, dir, "new.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkZero": 0, // NaN ratio without the guard
	})
	var stdout, stderr bytes.Buffer
	err := run([]string{old, new_}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("zero-ns/op benchmark passed the gate:\n%s", stdout.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkZero") || !strings.Contains(err.Error(), "unmeasurable") {
		t.Fatalf("error %q does not name the unmeasurable benchmark", err)
	}
	if !strings.Contains(stdout.String(), "UNMEASURABLE") {
		t.Fatalf("report does not mark the unmeasurable row:\n%s", stdout.String())
	}

	// A *new* benchmark (no baseline) with unmeasurable ns/op must also
	// fail, not slide through the (new, no baseline) report — it would
	// otherwise land in the next committed baseline and break the gate for
	// an innocent PR.
	newBad := writeStream(t, dir, "newbad.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkFreshZero": 0,
	})
	stdout.Reset()
	if err := run([]string{old, newBad}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkFreshZero") {
		t.Fatalf("unmeasurable baseline-less benchmark did not fail the gate: %v\n%s", err, stdout.String())
	}
}

// TestCommittedBaselinePassesGate compares the repo's committed BENCH
// artifact against itself: the gate must pass on the baseline it ships with.
func TestCommittedBaselinePassesGate(t *testing.T) {
	all, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	// make bench leaves BENCH_<rev>.summary.json next to the raw artifact;
	// summaries are condensed JSON, not go test -json streams, so skip them.
	var matches []string
	for _, m := range all {
		if !strings.HasSuffix(m, ".summary.json") {
			matches = append(matches, m)
		}
	}
	if len(matches) == 0 {
		t.Fatal("no committed BENCH_*.json baseline at the repo root")
	}
	for _, baseline := range matches {
		var stdout, stderr bytes.Buffer
		if err := run([]string{baseline, baseline}, &stdout, &stderr); err != nil {
			t.Fatalf("committed baseline %s fails its own gate: %v", baseline, err)
		}
		benches, err := parseFile(baseline)
		if err != nil {
			t.Fatal(err)
		}
		if len(benches) < 5 {
			t.Fatalf("baseline %s has %d benchmarks, expected the internal/bench suite (>= 5)", baseline, len(benches))
		}
	}
}

func TestListMode(t *testing.T) {
	dir := t.TempDir()
	path := writeStream(t, dir, "a.json", map[string]float64{"BenchmarkFoo": 150.5})
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"BenchmarkFoo", "150.5 ns/op", "24 B/op", "1 allocs/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	dir := t.TempDir()
	path := writeStream(t, dir, "a.json", map[string]float64{"BenchmarkFoo": 1})
	for name, args := range map[string][]string{
		"no args":        {},
		"one arg":        {path},
		"three args":     {path, path, path},
		"bad threshold":  {"-threshold", "0", path, path},
		"bad alloc thr":  {"-alloc-threshold", "-1", path, path},
		"list two args":  {"-list", path, path},
		"missing file":   {path, filepath.Join(dir, "nope.json")},
		"unknown flag":   {"-frobnicate", path, path},
		"not json input": {"-list", mustWrite(t, dir, "bad.txt", "BenchmarkFoo 100 ns/op")},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) unexpectedly succeeded", args)
			}
		})
	}
}

func mustWrite(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCountKeepsMinimum: repeated measurements (bench -count > 1) keep the
// fastest run, the noise-resistant convention.
func TestCountKeepsMinimum(t *testing.T) {
	s := stream(map[string]float64{"BenchmarkFoo": 100}) +
		stream(map[string]float64{"BenchmarkFoo": 80})
	benches, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 || benches[0].NsOp != 80 {
		t.Fatalf("parsed %+v, want single BenchmarkFoo at 80 ns/op", benches)
	}
}

// TestSummaryMode: -summary must emit valid JSON keyed by benchmark name
// with ns/op, B/op and allocs/op, the condensed artifact `make bench`
// stores next to the raw stream.
func TestSummaryMode(t *testing.T) {
	dir := t.TempDir()
	path := writeStream(t, dir, "run.json", map[string]float64{
		"BenchmarkFoo": 100, "BenchmarkBar": 250.5,
	})
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-summary", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-summary failed: %v\n%s", err, stderr.String())
	}
	var doc map[string]struct {
		NsOp     float64  `json:"ns_op"`
		BytesOp  *float64 `json:"bytes_op"`
		AllocsOp *float64 `json:"allocs_op"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("-summary output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(doc) != 2 {
		t.Fatalf("summary has %d entries, want 2:\n%s", len(doc), stdout.String())
	}
	foo := doc["BenchmarkFoo"]
	if foo.NsOp != 100 {
		t.Errorf("BenchmarkFoo ns_op = %v, want 100", foo.NsOp)
	}
	if foo.AllocsOp == nil || *foo.AllocsOp != 1 {
		t.Errorf("BenchmarkFoo allocs_op = %v, want 1", foo.AllocsOp)
	}
	if foo.BytesOp == nil || *foo.BytesOp != 24 {
		t.Errorf("BenchmarkFoo bytes_op = %v, want 24", foo.BytesOp)
	}
}

func TestSummaryModeArgErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-summary", "a.json", "b.json"}, &stdout, &stderr); err == nil {
		t.Fatal("-summary with two artifacts did not fail")
	}
}

// TestTrajectoryMode assembles two synthetic revision artifacts and checks
// the perf-over-time table carries both revisions' measurements.
func TestTrajectoryMode(t *testing.T) {
	dir := t.TempDir()
	old := writeStream(t, dir, "BENCH_aaa1111.json", map[string]float64{"BenchmarkFoo": 100})
	new_ := writeStream(t, dir, "BENCH_bbb2222.json", map[string]float64{"BenchmarkFoo": 80, "BenchmarkBar": 50})
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-trajectory", old, new_}, &stdout, &stderr); err != nil {
		t.Fatalf("-trajectory failed: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"| benchmark | rev | ns/op | allocs/op |",
		"| BenchmarkFoo | aaa1111 | 100.0 | 1 |",
		"| BenchmarkFoo | bbb2222 | 80.0 | 1 |",
		"| BenchmarkBar | aaa1111 | - | - |", // unmeasured revision renders as a gap
		"ns/op trajectory across 2 revision(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory output missing %q:\n%s", want, out)
		}
	}
}

// TestTrajectoryModeOutDir writes the report files instead of printing.
func TestTrajectoryModeOutDir(t *testing.T) {
	dir := t.TempDir()
	art := writeStream(t, dir, "BENCH_aaa1111.json", map[string]float64{"BenchmarkFoo": 100})
	outDir := filepath.Join(dir, "report")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-trajectory", "-out", outDir, art}, &stdout, &stderr); err != nil {
		t.Fatalf("-trajectory -out failed: %v\n%s", err, stderr.String())
	}
	for _, name := range []string{"trajectory.md", "trajectory.txt"} {
		b, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestTrajectoryModeErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-trajectory"}, &stdout, &stderr); err == nil {
		t.Error("-trajectory without artifacts did not fail")
	}
	if err := run([]string{"-trajectory", "not-a-bench.json"}, &stdout, &stderr); err == nil {
		t.Error("-trajectory with a foreign filename did not fail")
	}
}
