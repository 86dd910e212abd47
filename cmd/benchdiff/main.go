// Command benchdiff compares two benchmark artifacts produced by `make
// bench` (`go test -json` streams, the BENCH_<rev>.json files) and fails
// when any benchmark of the new run regressed beyond the threshold in
// ns/op or in allocs/op. It is the CI bench-gate: the committed baseline is
// the contract, and a PR that slows a hot path down >25% — or grows its
// allocation count >25%, the leading indicator of pooling regressions —
// fails the gate.
//
// Usage:
//
//	benchdiff old.json new.json              # gate at the default 1.25×
//	benchdiff -threshold 1.5 old.json new.json
//	benchdiff -alloc-threshold 2 old.json new.json
//	benchdiff -list file.json                # pretty-print one artifact
//	benchdiff -summary file.json             # condensed JSON: name → ns/op, B/op, allocs/op
//	benchdiff -trajectory BENCH_*.json       # perf-over-time table across revisions
//	benchdiff -trajectory -out dir BENCH_*.json BENCH_*.summary.json
//
// -trajectory assembles every given BENCH_<rev>.json / .summary.json
// artifact into a perf-over-time report: a markdown table (benchmark × rev,
// ns/op and allocs/op) and an ASCII chart of each benchmark's ns/op
// normalized to its first measurement. Revisions are ordered by git
// first-parent history when run inside the repository (argument order
// otherwise); a raw stream wins over a summary of the same revision. Only
// the benchmarks the newest artifact measures are listed. In the gate,
// benchmarks present in only one artifact are reported (per row and in a
// summary count) but never fail the gate — new benchmarks must be able to
// land together with their baseline refresh, and removals land with one
// too. Benchmarks whose ns/op is unmeasurable on either side (zero,
// negative, NaN) fail the gate: the comparison is meaningless and must not
// silently pass. The alloc gate only engages when both artifacts carry an
// allocs/op measurement — a legacy baseline captured without -benchmem
// skips it (with a notice) rather than failing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mcnet/internal/benchfmt"
)

// Bench is one benchmark's parsed measurements (see internal/benchfmt;
// BytesOp and AllocsOp are -1 when absent).
type Bench = benchfmt.Bench

// Parse extracts benchmark results from a `go test -json` stream.
func Parse(r io.Reader) ([]Bench, error) { return benchfmt.Parse(r) }

// errBadFlags mirrors the mcsweep convention: flag errors are already
// printed by the FlagSet.
var errBadFlags = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errBadFlags) {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind main, factored out for tests.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threshold      = fs.Float64("threshold", 1.25, "fail when new ns/op exceeds threshold × old ns/op")
		allocThreshold = fs.Float64("alloc-threshold", 1.25, "fail when new allocs/op exceeds alloc-threshold × old allocs/op (skipped when either artifact lacks allocs/op)")
		list           = fs.Bool("list", false, "print one artifact's benchmarks and exit")
		summary        = fs.Bool("summary", false, "print one artifact as condensed JSON (name → ns/op, B/op, allocs/op) and exit")
		trajectory     = fs.Bool("trajectory", false, "assemble BENCH_<rev> artifacts into a perf-over-time table and chart")
		out            = fs.String("out", "", "with -trajectory: directory to write trajectory.md and trajectory.txt into (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}
	if *trajectory {
		if fs.NArg() == 0 {
			return errors.New("-trajectory needs at least one BENCH_<rev> artifact")
		}
		return runTrajectory(stdout, fs.Args(), *out)
	}
	if *list || *summary {
		if fs.NArg() != 1 {
			return fmt.Errorf("-list/-summary need exactly one artifact, got %d", fs.NArg())
		}
		benches, err := parseFile(fs.Arg(0))
		if err != nil {
			return err
		}
		if *summary {
			return benchfmt.WriteSummary(stdout, benches)
		}
		printBenches(stdout, benches)
		return nil
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("need exactly two artifacts (old new), got %d", fs.NArg())
	}
	if *threshold <= 0 {
		return fmt.Errorf("threshold %v must be positive", *threshold)
	}
	if *allocThreshold <= 0 {
		return fmt.Errorf("alloc-threshold %v must be positive", *allocThreshold)
	}
	old, err := parseFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %v", fs.Arg(0), err)
	}
	new_, err := parseFile(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("%s: %v", fs.Arg(1), err)
	}
	return diff(stdout, old, new_, *threshold, *allocThreshold)
}

// diff reports every benchmark comparison and returns an error naming the
// regressions, if any. Benchmarks present on only one side are reported per
// row and counted in the summary line but never fail the gate (new
// benchmarks must be able to land together with their baseline refresh, and
// a removal lands with one too). A benchmark whose ns/op is unmeasurable on
// either side (zero, negative or NaN — a corrupt artifact) fails the gate:
// its ratio would be Inf or NaN, and NaN compares false against any
// threshold, which would silently pass a broken measurement.
//
// Alongside ns/op, allocs/op is gated at allocThreshold when both sides
// measured it. Allocation counts are deterministic counters, so the gate is
// strict: a zero-alloc baseline that grows any allocations is a regression
// (no ratio needed), which is exactly the property the pooled hot paths pin.
// Benchmarks without allocs/op on either side — a baseline captured before
// -benchmem, or one side stripped — skip the alloc comparison and are
// counted in a notice line, never failed.
func diff(w io.Writer, old, new_ []Bench, threshold, allocThreshold float64) error {
	oldBy := make(map[string]Bench, len(old))
	for _, b := range old {
		oldBy[b.Name] = b
	}
	seen := make(map[string]bool, len(new_))
	var regressions, unmeasurable []string
	added, removed, allocSkipped := 0, 0, 0
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, nb := range new_ {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !(nb.NsOp > 0) || (ok && !(ob.NsOp > 0)) {
			oldCol := "-"
			detail := fmt.Sprintf("%s: new with %v ns/op", nb.Name, nb.NsOp)
			if ok {
				oldCol = fmt.Sprintf("%.1f", ob.NsOp)
				detail = fmt.Sprintf("%s: %v → %v ns/op", nb.Name, ob.NsOp, nb.NsOp)
			}
			fmt.Fprintf(w, "%-28s %14s %14.1f %8s  UNMEASURABLE\n", nb.Name, oldCol, nb.NsOp, "-")
			unmeasurable = append(unmeasurable, detail)
			continue
		}
		if !ok {
			added++
			fmt.Fprintf(w, "%-28s %14s %14.1f %8s  (new, no baseline)\n", nb.Name, "-", nb.NsOp, "-")
			continue
		}
		ratio := nb.NsOp / ob.NsOp
		mark := ""
		if ratio > threshold {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f → %.1f ns/op (%.2f× > %.2f×)", nb.Name, ob.NsOp, nb.NsOp, ratio, threshold))
		}
		switch {
		case ob.AllocsOp < 0 || nb.AllocsOp < 0:
			allocSkipped++
		case ob.AllocsOp == 0 && nb.AllocsOp > 0:
			mark += "  ALLOC-REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: 0 → %.0f allocs/op (zero-alloc baseline broken)", nb.Name, nb.AllocsOp))
		case ob.AllocsOp > 0 && nb.AllocsOp/ob.AllocsOp > allocThreshold:
			mark += "  ALLOC-REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f → %.0f allocs/op (%.2f× > %.2f×)",
					nb.Name, ob.AllocsOp, nb.AllocsOp, nb.AllocsOp/ob.AllocsOp, allocThreshold))
		}
		fmt.Fprintf(w, "%-28s %14.1f %14.1f %7.2fx%s\n", nb.Name, ob.NsOp, nb.NsOp, ratio, mark)
	}
	for _, ob := range old {
		if !seen[ob.Name] {
			removed++
			fmt.Fprintf(w, "%-28s %14.1f %14s %8s  (removed)\n", ob.Name, ob.NsOp, "-", "-")
		}
	}
	if added > 0 || removed > 0 {
		fmt.Fprintf(w, "%d new benchmark(s) without baseline, %d removed from the new run (neither fails the gate)\n",
			added, removed)
	}
	if allocSkipped > 0 {
		fmt.Fprintf(w, "%d benchmark(s) without allocs/op on both sides; alloc gate skipped for them\n", allocSkipped)
	}
	if len(unmeasurable) > 0 {
		return fmt.Errorf("%d benchmark(s) with unmeasurable ns/op (corrupt artifact?):\n  %s",
			len(unmeasurable), strings.Join(unmeasurable, "\n  "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.2f×:\n  %s",
			len(regressions), threshold, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "no regressions beyond %.2f×\n", threshold)
	return nil
}

func printBenches(w io.Writer, benches []Bench) {
	for _, b := range benches {
		line := fmt.Sprintf("%-28s %14.1f ns/op", b.Name, b.NsOp)
		if b.BytesOp >= 0 {
			line += fmt.Sprintf(" %12.0f B/op", b.BytesOp)
		}
		if b.AllocsOp >= 0 {
			line += fmt.Sprintf(" %8.0f allocs/op", b.AllocsOp)
		}
		fmt.Fprintln(w, line)
	}
}

func parseFile(path string) ([]Bench, error) {
	return benchfmt.ParseFile(path)
}

// runTrajectory writes the perf-over-time report of the given BENCH_<rev>
// artifacts (benchfmt.TrajectoryReport): to stdout with outDir empty,
// otherwise as trajectory.md and trajectory.txt in outDir.
func runTrajectory(stdout io.Writer, paths []string, outDir string) error {
	md, chart, err := benchfmt.TrajectoryReport(paths)
	if err != nil {
		return err
	}
	if outDir == "" {
		fmt.Fprint(stdout, md)
		fmt.Fprint(stdout, chart)
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct{ name, content string }{
		{"trajectory.md", md},
		{"trajectory.txt", chart},
	} {
		path := filepath.Join(outDir, f.name)
		if err := os.WriteFile(path, []byte(f.content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
