// Package repro is the paper-grade reproduction pipeline: one call runs
// every study of the experiment manifest (internal/experiments) through the
// sweep engine into a timestamped run directory, validates every CSV
// against its declared schema, computes model-vs-simulation agreement per
// study, renders paper-ready tables and plots, and emits a machine-readable
// report.json with a pass/fail verdict CI can gate on.
//
// The run tree follows the scripts/paper exemplar layout:
//
//	paper_runs/<stamp>/
//	  manifest.json      — written FIRST: config + per-study plan (schema,
//	                       tolerances); its presence plus STATUS distinguish
//	                       complete runs from torn ones
//	  STATUS             — RUNNING while in flight, then DONE or FAILED
//	  cache/             — sweep.DirCache of simulation outcomes; a killed
//	                       run resumed with the same stamp re-executes only
//	                       the missing jobs
//	  csv/<study>.csv    — one series table per study (x + labeled columns)
//	  csv/raw/<spec>.csv — the raw sweep rows behind each study
//	  logs/pipeline.log  — timestamped per-study lifecycle log
//	  analysis/
//	    report.json      — the machine-readable verdict
//	    agreement.md/.tex— the model-vs-simulation agreement tables
//	    trajectory.md/.txt — perf-over-time across committed BENCH artifacts
//	    <study>.txt/.md  — rendered chart + markdown table per study
package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mcnet/internal/benchfmt"
	"mcnet/internal/experiments"
	"mcnet/internal/plot"
	"mcnet/internal/sweep"
)

// Run-directory marker files.
const (
	ManifestFile = "manifest.json"
	StatusFile   = "STATUS"
	// ReportFile is the run-relative path of the machine-readable verdict,
	// written when the analysis phase completes.
	ReportFile = "analysis/report.json"

	// StatusRunning marks a run in flight (a tree left in this state is
	// torn: the process died before finishing). StatusDone marks a run that
	// completed — its report.json carries the fidelity verdict, which may
	// still be "fail". StatusFailed marks a pipeline-level error (I/O,
	// configuration), with no complete report.
	StatusRunning = "RUNNING"
	StatusDone    = "DONE"
	StatusFailed  = "FAILED"
)

// Config parameterizes a pipeline run. The zero value runs the full paper
// grid at paper scale into ./paper_runs.
type Config struct {
	// Root is the parent of all run directories (default "paper_runs").
	Root string `json:"-"`
	// Stamp names the run directory (default: UTC wall time,
	// 2006-01-02_150405). Re-running with an existing stamp resumes from
	// that run's simulation cache.
	Stamp string `json:"stamp,omitempty"`
	// Small selects the CI-sized subset: manifest entries marked Small, at
	// quick scale with 5-point grids (each individually overridable).
	Small bool `json:"small"`
	// Scale is "paper" or "quick" ("" = paper, or quick when Small).
	Scale string `json:"scale,omitempty"`
	// Points overrides every study's per-curve grid size (0 = the entry
	// default, or 5 when Small).
	Points int `json:"points,omitempty"`
	// Threshold overrides every gated entry's agreement tolerance
	// (0 = per-entry, default 25% mean relative error).
	Threshold float64 `json:"threshold,omitempty"`
	// Seed and Reps override the measurement scale's defaults (0 = keep).
	Seed uint64 `json:"seed,omitempty"`
	Reps int    `json:"reps,omitempty"`
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Only restricts the run to the named studies (default: the whole
	// manifest, or its Small subset).
	Only []string `json:"only,omitempty"`
	// BenchArtifacts are BENCH_<rev>.json / .summary.json files to fold
	// into the perf-trajectory section (empty = section skipped).
	BenchArtifacts []string `json:"bench_artifacts,omitempty"`

	// Entries overrides the study set (tests inject synthetic studies);
	// nil = experiments.Manifest().
	Entries []experiments.Entry `json:"-"`
	// Log, if non-nil, receives the live pipeline log alongside
	// logs/pipeline.log.
	Log io.Writer `json:"-"`

	// now is injectable for tests (nil = time.Now).
	now func() time.Time
}

// StudyPlan is one study's declared schema in manifest.json: the manifest
// entry plus the resolved grid size this run uses.
type StudyPlan struct {
	experiments.Entry
	RunPoints int `json:"run_points"`
}

// RunManifest is the manifest.json document, written before any study runs
// so an interrupted tree still identifies itself and can be resumed.
type RunManifest struct {
	Stamp   string      `json:"stamp"`
	Created string      `json:"created"`
	Config  Config      `json:"config"`
	Studies []StudyPlan `json:"studies"`
}

// StudyReport is one study's outcome in report.json.
type StudyReport struct {
	Name  string           `json:"name"`
	Title string           `json:"title"`
	Kind  experiments.Kind `json:"kind"`
	Gated bool             `json:"gated"`
	// Points is the per-curve grid size the study ran at.
	Points int `json:"points"`
	// CSV is the study's series table (relative to the run directory, ""
	// for report entries); RawCSVs are the raw sweep row files behind it;
	// Output is the rendered chart/text.
	CSV     string   `json:"csv,omitempty"`
	RawCSVs []string `json:"raw_csvs,omitempty"`
	Output  string   `json:"output,omitempty"`
	// Rows and Cols describe the written series CSV.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// SchemaViolations lists every schema-validation failure across the
	// study's files (empty = all valid).
	SchemaViolations []string `json:"schema_violations,omitempty"`
	// Pairs carries the model-vs-simulation agreement of every declared
	// pair (gated entries only).
	Pairs []PairAgreement `json:"pairs,omitempty"`
	// Error is a study-level execution failure ("" = ran to completion).
	Error string `json:"error,omitempty"`
	// Pass is the study verdict: no error, no schema violation, every
	// gated pair within tolerance.
	Pass    bool    `json:"pass"`
	Seconds float64 `json:"seconds"`
}

// Report is the report.json document: the machine-checked outcome of one
// pipeline run.
type Report struct {
	Stamp   string        `json:"stamp"`
	Created string        `json:"created"`
	Config  Config        `json:"config"`
	Studies []StudyReport `json:"studies"`
	// BenchTrajectory is the relative path of the perf-over-time table
	// ("" when no artifacts were given).
	BenchTrajectory string `json:"bench_trajectory,omitempty"`
	// Verdict is "pass" or "fail"; Failures lists every reason.
	Verdict  string   `json:"verdict"`
	Failures []string `json:"failures,omitempty"`
}

// Passed reports whether the run's verdict is "pass".
func (r *Report) Passed() bool { return r.Verdict == "pass" }

// scaleFor resolves the config's measurement scale.
func scaleFor(cfg Config) (experiments.Scale, error) {
	name := cfg.Scale
	if name == "" {
		if cfg.Small {
			name = "quick"
		} else {
			name = "paper"
		}
	}
	var sc experiments.Scale
	switch name {
	case "paper":
		sc = experiments.PaperScale()
	case "quick":
		sc = experiments.QuickScale()
	default:
		return sc, fmt.Errorf("repro: unknown scale %q (paper|quick)", name)
	}
	if cfg.Seed != 0 {
		sc.Seed = cfg.Seed
	}
	if cfg.Reps > 0 {
		sc.Reps = cfg.Reps
	}
	return sc, nil
}

// selectEntries resolves the study set: the injected or full manifest,
// filtered by Only (every name must exist) or by the Small subset.
func selectEntries(cfg Config) ([]experiments.Entry, error) {
	all := cfg.Entries
	if all == nil {
		all = experiments.Manifest()
	}
	if len(cfg.Only) > 0 {
		byName := make(map[string]experiments.Entry, len(all))
		for _, e := range all {
			byName[e.Name] = e
		}
		out := make([]experiments.Entry, 0, len(cfg.Only))
		for _, name := range cfg.Only {
			e, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("repro: unknown study %q (studies: %v)", name, names(all))
			}
			out = append(out, e)
		}
		return out, nil
	}
	if cfg.Small {
		var out []experiments.Entry
		for _, e := range all {
			if e.Small {
				out = append(out, e)
			}
		}
		return out, nil
	}
	return all, nil
}

func names(entries []experiments.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// points resolves one study's grid size under the config.
func (cfg Config) points(e experiments.Entry) int {
	if cfg.Points > 0 {
		return cfg.Points
	}
	if cfg.Small {
		return 5
	}
	return e.Points(0)
}

// Resume re-runs a previous run directory from its manifest: the same
// stamp, study set, scale and thresholds, with the simulation cache already
// populated — so only the jobs the interrupted run never finished execute.
func Resume(dir string, log io.Writer) (*Report, string, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, "", fmt.Errorf("repro: not a resumable run directory: %v", err)
	}
	var m RunManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, "", fmt.Errorf("repro: parsing %s: %v", ManifestFile, err)
	}
	cfg := m.Config
	cfg.Root = filepath.Dir(dir)
	cfg.Stamp = filepath.Base(dir)
	cfg.Only = make([]string, len(m.Studies))
	for i, s := range m.Studies {
		cfg.Only[i] = s.Name
	}
	cfg.Log = log
	return Run(cfg)
}

// Run executes the pipeline and returns the report plus the run directory.
// A non-nil error means the pipeline itself broke (I/O, configuration);
// fidelity failures are reported through the Report's verdict instead.
func Run(cfg Config) (rep *Report, dir string, err error) {
	if cfg.Root == "" {
		cfg.Root = "paper_runs"
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	if cfg.Stamp == "" {
		cfg.Stamp = now().UTC().Format("2006-01-02_150405")
	}
	scale, err := scaleFor(cfg)
	if err != nil {
		return nil, "", err
	}
	entries, err := selectEntries(cfg)
	if err != nil {
		return nil, "", err
	}
	if len(entries) == 0 {
		return nil, "", fmt.Errorf("repro: no studies selected")
	}

	dir = filepath.Join(cfg.Root, cfg.Stamp)
	for _, sub := range []string{"csv/raw", "logs", "analysis", "cache"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, dir, err
		}
	}

	created := now().UTC().Format(time.RFC3339)
	manifest := RunManifest{Stamp: cfg.Stamp, Created: created, Config: cfg}
	for _, e := range entries {
		manifest.Studies = append(manifest.Studies, StudyPlan{Entry: e, RunPoints: cfg.points(e)})
	}
	// manifest.json lands before anything else, STATUS right after: a tree
	// holding a manifest but a RUNNING (or missing) terminal status is
	// torn, and the manifest is everything Resume needs to finish it.
	if err := writeJSON(filepath.Join(dir, ManifestFile), manifest); err != nil {
		return nil, dir, err
	}
	if err := writeStatus(dir, StatusRunning); err != nil {
		return nil, dir, err
	}
	defer func() {
		status := StatusDone
		if err != nil {
			status = StatusFailed
		}
		if werr := writeStatus(dir, status); werr != nil && err == nil {
			err = werr
		}
	}()

	logFile, err := os.Create(filepath.Join(dir, "logs", "pipeline.log"))
	if err != nil {
		return nil, dir, err
	}
	defer logFile.Close()
	logw := io.MultiWriter(logFile)
	if cfg.Log != nil {
		logw = io.MultiWriter(logFile, cfg.Log)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(logw, "%s %s\n", now().UTC().Format(time.RFC3339), fmt.Sprintf(format, args...))
	}

	cache, err := sweep.NewDirCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, dir, err
	}
	runner := experiments.NewRunner(scale)
	runner.Workers = cfg.Workers
	runner.Cache = cache

	rep = &Report{Stamp: cfg.Stamp, Created: created, Config: cfg, Verdict: "pass"}
	logf("pipeline start stamp=%s scale=%+v studies=%d threshold_override=%g",
		cfg.Stamp, scale, len(entries), cfg.Threshold)

	var agreementRows []plot.AgreementRow
	for _, e := range entries {
		sr := runStudy(dir, e, cfg, runner, logf)
		rep.Studies = append(rep.Studies, sr)
		for _, v := range sr.SchemaViolations {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: schema: %s", sr.Name, v))
		}
		if sr.Error != "" {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", sr.Name, sr.Error))
		}
		for _, pa := range sr.Pairs {
			agreementRows = append(agreementRows, plot.AgreementRow{
				Study: sr.Name, Pair: pa.Analysis + " vs " + pa.Simulation,
				Points:     pa.Points,
				MeanRelErr: float64(pa.MeanRelErr), MaxRelErr: float64(pa.MaxRelErr),
				Tolerance: pa.Tolerance, Pass: pa.Pass,
			})
			if !pa.Pass {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s: %s vs %s: %s", sr.Name, pa.Analysis, pa.Simulation, pa.Reason))
			}
		}
	}

	if len(agreementRows) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "analysis", "agreement.md"),
			[]byte(plot.AgreementMarkdown(agreementRows)), 0o644); err != nil {
			return nil, dir, err
		}
		if err := os.WriteFile(filepath.Join(dir, "analysis", "agreement.tex"),
			[]byte(plot.AgreementLaTeX(agreementRows)), 0o644); err != nil {
			return nil, dir, err
		}
	}

	if len(cfg.BenchArtifacts) > 0 {
		traj, terr := writeTrajectory(dir, cfg.BenchArtifacts)
		if terr != nil {
			logf("trajectory skipped: %v", terr)
		} else {
			rep.BenchTrajectory = traj
			logf("trajectory written from %d artifact(s)", len(cfg.BenchArtifacts))
		}
	}

	if len(rep.Failures) > 0 {
		rep.Verdict = "fail"
	}
	if err := writeJSON(filepath.Join(dir, filepath.FromSlash(ReportFile)), rep); err != nil {
		return nil, dir, err
	}
	logf("pipeline done verdict=%s failures=%d", rep.Verdict, len(rep.Failures))
	return rep, dir, nil
}

// runStudy executes one manifest entry into the run tree. Study-level
// failures are contained in the returned report so one broken study never
// hides the others' results.
func runStudy(dir string, e experiments.Entry, cfg Config, runner experiments.Runner, logf func(string, ...any)) StudyReport {
	points := cfg.points(e)
	sr := StudyReport{Name: e.Name, Title: e.Title, Kind: e.Kind, Gated: e.Gated, Points: points}
	start := time.Now()
	logf("study %s start kind=%s points=%d gated=%t", e.Name, e.Kind, points, e.Gated)

	// Capture every sweep the study runs as raw CSVs under csv/raw.
	var rawFiles []string
	var closers []func() error
	runner.ExtraSinks = func(spec sweep.Spec) []sweep.Sink {
		sink, closeFn, err := sweep.NewSpecCSVSink(filepath.Join(dir, "csv", "raw"), spec)
		if err != nil {
			sr.SchemaViolations = append(sr.SchemaViolations,
				fmt.Sprintf("raw sink for sweep %q: %v", spec.Name, err))
			return nil
		}
		rawFiles = append(rawFiles, spec.Name+".csv")
		closers = append(closers, closeFn)
		return []sweep.Sink{sink}
	}
	finishRaw := func() {
		for _, c := range closers {
			if err := c(); err != nil {
				sr.SchemaViolations = append(sr.SchemaViolations, fmt.Sprintf("closing raw CSV: %v", err))
			}
		}
		for _, f := range rawFiles {
			rel := filepath.Join("csv", "raw", f)
			sr.RawCSVs = append(sr.RawCSVs, rel)
			rows, violations := ValidateRawCSV(filepath.Join(dir, rel))
			for _, v := range violations {
				sr.SchemaViolations = append(sr.SchemaViolations, fmt.Sprintf("%s: %s", rel, v))
			}
			logf("study %s raw %s rows=%d violations=%d", e.Name, rel, rows, len(violations))
		}
	}

	switch {
	case e.Report != nil:
		text, err := e.Report(runner, points)
		finishRaw()
		if err != nil {
			sr.Error = err.Error()
			break
		}
		sr.Output = filepath.Join("analysis", e.Name+".txt")
		if werr := os.WriteFile(filepath.Join(dir, sr.Output), []byte(text), 0o644); werr != nil {
			sr.Error = werr.Error()
			break
		}
		sr.SchemaViolations = append(sr.SchemaViolations, validateReport(text)...)

	case e.Series != nil:
		series, err := e.Series(runner, points)
		finishRaw()
		if err != nil {
			sr.Error = err.Error()
			break
		}
		sr.CSV = filepath.Join("csv", e.Name+".csv")
		if werr := writeSeriesCSV(filepath.Join(dir, sr.CSV), series); werr != nil {
			sr.Error = werr.Error()
			break
		}
		sr.Rows, sr.Cols = points, 1+len(series)
		labels := e.SeriesLabels
		if len(labels) == 0 { // synthetic entries may not declare a schema
			for _, s := range series {
				labels = append(labels, s.Label)
			}
		}
		sr.SchemaViolations = append(sr.SchemaViolations,
			ValidateSeriesCSV(filepath.Join(dir, sr.CSV), labels, points)...)

		sr.Output = filepath.Join("analysis", e.Name+".txt")
		chart := plot.ASCII(e.Title, series, 72, 18, plot.AutoCap(series))
		if werr := os.WriteFile(filepath.Join(dir, sr.Output), []byte(chart), 0o644); werr != nil {
			sr.Error = werr.Error()
			break
		}
		if werr := os.WriteFile(filepath.Join(dir, "analysis", e.Name+".md"),
			[]byte(plot.MarkdownTable(series)), 0o644); werr != nil {
			sr.Error = werr.Error()
			break
		}
		if e.Gated {
			sr.Pairs = AgreeAll(e, series, cfg.Threshold)
		}

	default:
		sr.Error = "manifest entry has neither Series nor Report"
	}

	sr.Seconds = time.Since(start).Seconds()
	sr.Pass = sr.Error == "" && len(sr.SchemaViolations) == 0
	for _, pa := range sr.Pairs {
		if !pa.Pass {
			sr.Pass = false
		}
	}
	logf("study %s done pass=%t seconds=%.2f violations=%d pairs=%d",
		e.Name, sr.Pass, sr.Seconds, len(sr.SchemaViolations), len(sr.Pairs))
	return sr
}

// writeSeriesCSV writes a study's series table via plot.CSV.
func writeSeriesCSV(path string, series []plot.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := plot.CSV(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrajectory writes the BENCH artifacts' perf-over-time report
// (benchfmt.TrajectoryReport) to analysis/trajectory.md and .txt.
func writeTrajectory(dir string, paths []string) (string, error) {
	md, chart, err := benchfmt.TrajectoryReport(paths)
	if err != nil {
		return "", err
	}
	rel := filepath.Join("analysis", "trajectory.md")
	if err := os.WriteFile(filepath.Join(dir, rel), []byte(md), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "analysis", "trajectory.txt"), []byte(chart), 0o644); err != nil {
		return "", err
	}
	return rel, nil
}

// writeStatus atomically replaces the run's STATUS marker.
func writeStatus(dir, status string) error {
	tmp := filepath.Join(dir, StatusFile+".tmp")
	if err := os.WriteFile(tmp, []byte(status+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, StatusFile))
}

// ReadStatus returns a run directory's STATUS marker ("" when absent — a
// tree torn before the marker landed).
func ReadStatus(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, StatusFile))
	if err != nil {
		return ""
	}
	s := string(b)
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// writeJSON marshals v (indented) to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
