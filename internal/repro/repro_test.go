package repro

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcnet/internal/experiments"
	"mcnet/internal/plot"
)

// syntheticEntry builds a gated study whose analysis curve is the
// simulation curve multiplied by skew — no simulator involved, so pipeline
// behavior is tested in milliseconds. skew=1 agrees perfectly; skew=2 puts
// the mean relative error at 100%, far past any tolerance.
func syntheticEntry(name string, skew float64) experiments.Entry {
	return experiments.Entry{
		Name: name, Title: "synthetic study " + name, Kind: experiments.KindStudy,
		Small: true, Gated: true, Tolerance: experiments.DefaultTolerance,
		Pairs:         []experiments.Pair{{Analysis: "analysis", Simulation: "simulation"}},
		SeriesLabels:  []string{"analysis", "simulation"},
		DefaultPoints: 4,
		Series: func(_ experiments.Runner, points int) ([]plot.Series, error) {
			x := make([]float64, points)
			sim := make([]float64, points)
			an := make([]float64, points)
			for i := range x {
				x[i] = float64(i+1) * 0.1
				sim[i] = 10 + float64(i)
				an[i] = sim[i] * skew
			}
			return []plot.Series{
				{Label: "analysis", X: x, Y: an},
				{Label: "simulation", X: x, Y: sim},
			}, nil
		},
	}
}

func runSynthetic(t *testing.T, entries []experiments.Entry) (*Report, string) {
	t.Helper()
	rep, dir, err := Run(Config{
		Root:    t.TempDir(),
		Stamp:   "test-run",
		Small:   true,
		Points:  4,
		Entries: entries,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep, dir
}

func TestRunHealthyVerdictPass(t *testing.T) {
	rep, dir := runSynthetic(t, []experiments.Entry{syntheticEntry("healthy", 1.05)})
	if !rep.Passed() {
		t.Fatalf("verdict = %q, failures = %v; want pass", rep.Verdict, rep.Failures)
	}
	if got := ReadStatus(dir); got != StatusDone {
		t.Errorf("STATUS = %q, want %q", got, StatusDone)
	}
	// The full run tree must exist.
	for _, rel := range []string{
		ManifestFile, StatusFile,
		"csv/healthy.csv",
		"analysis/healthy.txt", "analysis/healthy.md",
		"analysis/agreement.md", "analysis/agreement.tex",
		"analysis/report.json",
		"logs/pipeline.log",
	} {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("missing run-tree file %s: %v", rel, err)
		}
	}
	if len(rep.Studies) != 1 || !rep.Studies[0].Pass {
		t.Fatalf("studies = %+v, want one passing study", rep.Studies)
	}
	if p := rep.Studies[0].Pairs; len(p) != 1 || !p[0].Pass || p[0].Points != 4 {
		t.Errorf("pairs = %+v, want one passing 4-point pair", p)
	}
	// report.json round-trips.
	b, err := os.ReadFile(filepath.Join(dir, "analysis", "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Report
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatalf("report.json does not parse: %v", err)
	}
	if onDisk.Verdict != "pass" {
		t.Errorf("report.json verdict = %q, want pass", onDisk.Verdict)
	}
}

// TestGateFlipsOnSkewedAnalysis is the acceptance check for the fidelity
// gate: a deliberately skewed analytic result must flip the verdict to
// fail (while the pipeline itself completes normally).
func TestGateFlipsOnSkewedAnalysis(t *testing.T) {
	rep, dir := runSynthetic(t, []experiments.Entry{
		syntheticEntry("healthy", 1.05),
		syntheticEntry("skewed", 2.0),
	})
	if rep.Passed() {
		t.Fatal("verdict = pass for a 2× skewed analytic curve; the gate did not flip")
	}
	if got := ReadStatus(dir); got != StatusDone {
		t.Errorf("STATUS = %q, want %q (fidelity failure is not a pipeline failure)", got, StatusDone)
	}
	if !rep.Studies[0].Pass || rep.Studies[1].Pass {
		t.Errorf("study verdicts = %t,%t; want healthy pass, skewed fail",
			rep.Studies[0].Pass, rep.Studies[1].Pass)
	}
	found := false
	for _, f := range rep.Failures {
		if strings.Contains(f, "skewed") && strings.Contains(f, "exceeds tolerance") {
			found = true
		}
	}
	if !found {
		t.Errorf("failures = %v, want a tolerance failure naming the skewed study", rep.Failures)
	}
}

// TestSchemaViolationFailsVerdict: a study whose output drifts from its
// declared schema (different series labels) must fail the run.
func TestSchemaViolationFailsVerdict(t *testing.T) {
	e := syntheticEntry("drifted", 1.0)
	e.SeriesLabels = []string{"analysis", "simulation (new name)"}
	rep, _ := runSynthetic(t, []experiments.Entry{e})
	if rep.Passed() {
		t.Fatal("verdict = pass despite a schema drift; want fail")
	}
	if len(rep.Studies[0].SchemaViolations) == 0 {
		t.Error("no schema violations recorded for a drifted header")
	}
}

// TestStudyErrorIsContained: one broken study fails the verdict but never
// aborts the pipeline or hides the other studies.
func TestStudyErrorIsContained(t *testing.T) {
	broken := experiments.Entry{
		Name: "broken", Kind: experiments.KindStudy, Small: true,
		Series: func(experiments.Runner, int) ([]plot.Series, error) {
			return nil, os.ErrPermission
		},
	}
	rep, dir := runSynthetic(t, []experiments.Entry{broken, syntheticEntry("healthy", 1.0)})
	if rep.Passed() {
		t.Fatal("verdict = pass despite a broken study")
	}
	if got := ReadStatus(dir); got != StatusDone {
		t.Errorf("STATUS = %q, want %q", got, StatusDone)
	}
	if len(rep.Studies) != 2 || rep.Studies[0].Error == "" || !rep.Studies[1].Pass {
		t.Errorf("studies = %+v; want broken recorded and healthy still run", rep.Studies)
	}
}

// TestManifestWrittenFirstAndResume: the manifest lands before any study
// output, a torn tree reads as RUNNING, and Resume finishes it from the
// manifest alone.
func TestManifestWrittenFirstAndResume(t *testing.T) {
	rep, dir := runSynthetic(t, []experiments.Entry{syntheticEntry("healthy", 1.0)})
	if !rep.Passed() {
		t.Fatalf("setup run failed: %v", rep.Failures)
	}
	var m RunManifest
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("manifest.json does not parse: %v", err)
	}
	if len(m.Studies) != 1 || m.Studies[0].Name != "healthy" || m.Studies[0].RunPoints != 4 {
		t.Fatalf("manifest studies = %+v, want healthy at 4 points", m.Studies)
	}

	// Tear the run: drop the terminal status and the report, as a crash
	// mid-pipeline would.
	if err := writeStatus(dir, StatusRunning); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "analysis", "report.json"))

	// Resume must rebuild from manifest.json. The manifest carries only the
	// study names, so resuming needs the real manifest — synthetic entries
	// aren't in it. Resolve by injecting them through the config read back.
	rep2, dir2, err := Resume(dir, nil)
	if err == nil {
		t.Fatalf("Resume with synthetic (non-manifest) studies unexpectedly succeeded: %+v in %s", rep2, dir2)
	}
	if !strings.Contains(err.Error(), "unknown study") {
		t.Errorf("Resume error = %v, want unknown-study (names come from the manifest)", err)
	}
}

// TestResumeRealStudy resumes a torn run of a real (cheap) manifest report
// entry and verifies the same directory is completed in place.
func TestResumeRealStudy(t *testing.T) {
	root := t.TempDir()
	rep, dir, err := Run(Config{Root: root, Stamp: "r1", Only: []string{"table1"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("table1 run failed: %v", rep.Failures)
	}
	if err := writeStatus(dir, StatusRunning); err != nil {
		t.Fatal(err)
	}
	rep2, dir2, err := Resume(dir, nil)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if dir2 != dir {
		t.Errorf("Resume dir = %s, want %s", dir2, dir)
	}
	if !rep2.Passed() || ReadStatus(dir) != StatusDone {
		t.Errorf("resumed run: verdict=%q STATUS=%q, want pass/DONE", rep2.Verdict, ReadStatus(dir))
	}
}

// TestRawCSVCarriesStudyAnalysis checks that the raw sweep rows behind a
// study carry the model value its study CSV plots at the same load: the
// study reads its analysis curve from the sweep engine, so both files hold
// one model.
func TestRawCSVCarriesStudyAnalysis(t *testing.T) {
	rep, dir, err := Run(Config{Root: t.TempDir(), Small: true, Only: []string{"rate-hetero"}, Points: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("rate-hetero run failed: %v", rep.Failures)
	}
	readCSV := func(rel string) (map[string]int, [][]string) {
		f, err := os.Open(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		cols := map[string]int{}
		for i, name := range rows[0] {
			cols[name] = i
		}
		return cols, rows[1:]
	}
	// The study CSV leaves a saturated model point empty; raw rows write NaN.
	value := func(cell string) float64 {
		if cell == "" {
			return math.NaN()
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

	studyCols, study := readCSV(filepath.Join("csv", "rate-hetero.csv"))
	rawCols, raw := readCSV(filepath.Join("csv", "raw", "rate-hetero.csv"))
	if len(study) != 3 || len(raw) != len(study) {
		t.Fatalf("%d study rows and %d raw rows, want 3 each (one replication per load)", len(study), len(raw))
	}
	for i, row := range raw {
		x, an := value(study[i][studyCols["x"]]), value(study[i][studyCols["analysis"]])
		lambda, rawAn := value(row[rawCols["lambda"]]), value(row[rawCols["analysis"]])
		if lambda != x {
			t.Errorf("load %d: raw λ %v, study x %v", i, lambda, x)
		}
		if math.IsNaN(an) {
			t.Errorf("load %d: study analysis is empty below saturation", i)
		}
		if !same(rawAn, an) {
			t.Errorf("load %d: raw analysis %v, study analysis %v", i, rawAn, an)
		}
	}
}

func TestSelectEntries(t *testing.T) {
	// Every current manifest entry is Small, so the subset filter is
	// checked on an injected study set.
	injected := []experiments.Entry{{Name: "a", Small: true}, {Name: "b"}, {Name: "c", Small: true}}
	small, err := selectEntries(Config{Small: true, Entries: injected})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 2 || small[0].Name != "a" || small[1].Name != "c" {
		t.Errorf("small subset = %v, want [a c]", names(small))
	}
	if all, err := selectEntries(Config{Entries: injected}); err != nil || len(all) != 3 {
		t.Errorf("full set = %v (err %v), want all 3 entries", names(all), err)
	}
	manifestSmall, err := selectEntries(Config{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(manifestSmall) == 0 {
		t.Error("the manifest's small subset is empty; the CI gate would run nothing")
	}
	for _, e := range manifestSmall {
		if !e.Small {
			t.Errorf("small subset includes %s, which is not marked Small", e.Name)
		}
	}
	if _, err := selectEntries(Config{Only: []string{"no-such-study"}}); err == nil {
		t.Error("unknown Only name did not error")
	}
}

func TestReadStatusAbsent(t *testing.T) {
	if got := ReadStatus(t.TempDir()); got != "" {
		t.Errorf("ReadStatus(empty dir) = %q, want \"\"", got)
	}
}
