// Command mcsweep runs a declarative parameter sweep: a JSON spec file (or a
// builtin named spec) in, a results directory of CSV + JSONL out. Jobs run
// concurrently on a worker pool, every simulation outcome is content-hash
// cached on disk, and output is byte-identical across runs and worker
// counts.
//
// Usage:
//
//	mcsweep -spec fig3-m32 -dry-run          # print the expanded job grid
//	mcsweep -spec fig3-m32 -out results/     # run the Figure 3 (M=32) grid
//	mcsweep -spec fig3-m32 -out results/ -resume   # instant: 100% cache hits
//	mcsweep -spec mysweep.json -workers 4    # custom spec, bounded parallelism
//	mcsweep -spec demo -print-spec           # emit a spec JSON to start from
//	mcsweep -spec bursty -out results/       # burstiness × size-mix grid
//	mcsweep -spec demo -arrivals mmpp:16:32 -sizes bimodal:8:128:0.2 -out results/
//	mcsweep -spec hetero-links -out results/ # per-tier link technology grid
//	mcsweep -spec demo -links uniform,icn2=0.04/0.02/0.004 -out results/
//	mcsweep -spec demo -telemetry -out results/  # per-tier contention columns + reports
//
// A spec names its axes (organizations, message geometry, traffic patterns,
// routing policies, arrival processes, message-length distributions, load
// grid, replications); the cross product is the job grid. Without -resume the grid's own cache entries are invalidated first,
// so the run measures everything afresh (other sweeps sharing the output
// directory keep their cache); with -resume, previously completed jobs are
// reused and an interrupted sweep continues where it stopped.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mcnet/internal/sweep"
)

// errBadFlags reports a flag-parsing failure whose details the FlagSet has
// already written to stderr.
var errBadFlags = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errBadFlags) {
			fmt.Fprintf(os.Stderr, "mcsweep: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind main, factored out so tests can drive flag
// handling and execution directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mcsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specArg   = fs.String("spec", "", "spec file (JSON) or builtin name: "+strings.Join(sweep.BuiltinNames(), "|"))
		out       = fs.String("out", "results", "output directory (CSV, JSONL, cache)")
		workers   = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		resume    = fs.Bool("resume", false, "reuse cached job outcomes from a previous run")
		dryRun    = fs.Bool("dry-run", false, "print the expanded job grid and exit")
		printSpec = fs.Bool("print-spec", false, "print the normalized spec as JSON and exit")
		warmup    = fs.Int("warmup", -1, "override spec warmup message count")
		measure   = fs.Int("measure", -1, "override spec measure message count")
		drain     = fs.Int("drain", -1, "override spec drain message count")
		seed      = fs.Uint64("seed", 0, "override spec base seed")
		reps      = fs.Int("reps", 0, "override spec replications per point")
		arrivals  = fs.String("arrivals", "", "override spec arrival axis (comma-separated: poisson|deterministic|mmpp:<peak>:<burst>)")
		sizes     = fs.String("sizes", "", "override spec size axis (comma-separated: fixed|bimodal:<short>:<long>:<plong>|geometric:<mean>)")
		links     = fs.String("links", "", "override spec link-technology axis (comma-separated: uniform|<tier>=<an>/<as>/<bn>[+...] over icn1,ecn1,icn2,conc)")
		topos     = fs.String("topos", "", "override spec topology axis (comma-separated: fattree|jellyfish[.s<seed>], optionally +fattree|+dragonfly for ICN2)")
		telemetry = fs.Bool("telemetry", false, "collect per-tier contention telemetry: adds the telemetry CSV columns and writes one report per executed job under <out>/telemetry/<spec>/")
		verbose   = fs.Bool("v", false, "print one line per job as it finishes instead of the progress ticker")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		// The FlagSet already printed the error and usage to stderr; don't
		// repeat the message.
		return errBadFlags
	}
	if *specArg == "" {
		return fmt.Errorf("missing -spec (a JSON file or one of: %s)", strings.Join(sweep.BuiltinNames(), ", "))
	}

	spec, err := loadSpec(*specArg)
	if err != nil {
		return err
	}
	if *warmup >= 0 {
		spec.Warmup = *warmup
	}
	if *measure >= 0 {
		spec.Measure = *measure
	}
	if *drain >= 0 {
		spec.Drain = *drain
	}
	if *seed != 0 {
		spec.BaseSeed = *seed
	}
	if *reps > 0 {
		spec.Reps = *reps
	}
	if *arrivals != "" {
		spec.Arrivals = strings.Split(*arrivals, ",")
	}
	if *sizes != "" {
		spec.Sizes = strings.Split(*sizes, ",")
	}
	if *links != "" {
		spec.Links = strings.Split(*links, ",")
	}
	if *topos != "" {
		spec.Topologies = strings.Split(*topos, ",")
	}
	if *telemetry {
		spec.Telemetry = true
	}
	spec = spec.Normalized()

	if *printSpec {
		b, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
		return nil
	}

	jobs, err := sweep.Expand(spec)
	if err != nil {
		return err
	}
	if *dryRun {
		fmt.Fprintf(stdout, "sweep %q expands to:\n%s", spec.Name, sweep.FormatGrid(jobs))
		return nil
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("creating -out: %v", err)
	}
	cache, err := sweep.NewDirCache(filepath.Join(*out, "cache"))
	if err != nil {
		return fmt.Errorf("opening cache: %v", err)
	}
	if !*resume {
		// Invalidate only this grid's entries: other specs sharing the
		// output directory keep their cached outcomes.
		for _, j := range jobs {
			if err := cache.Delete(j.Key()); err != nil {
				return fmt.Errorf("clearing cache: %v", err)
			}
		}
	}
	csvPath := filepath.Join(*out, spec.Name+".csv")
	jsonlPath := filepath.Join(*out, spec.Name+".jsonl")
	csvFile, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer csvFile.Close()
	jsonlFile, err := os.Create(jsonlPath)
	if err != nil {
		return err
	}
	defer jsonlFile.Close()
	csvSink := sweep.NewCSVSink(csvFile, spec)
	jsonlSink := sweep.NewJSONLSink(jsonlFile)

	start := time.Now()
	eng := &sweep.Engine{
		Workers: *workers,
		Cache:   cache,
		Sinks:   []sweep.Sink{csvSink, jsonlSink},
	}
	var teleDir string
	var teleErr teleError
	if spec.Telemetry {
		// One full contention report per executed job (cache hits have no
		// fresh report — their digest is already in the CSV/JSONL rows).
		// Workers run the hook concurrently; each job writes its own file.
		teleDir = filepath.Join(*out, "telemetry", spec.Name)
		if err := os.MkdirAll(teleDir, 0o755); err != nil {
			return fmt.Errorf("creating telemetry dir: %v", err)
		}
		eng.Exec = func(j sweep.Job) (sweep.Outcome, bool, error) {
			o, rep, err := sweep.ExecuteTelemetry(j, nil)
			if err != nil {
				return o, false, err
			}
			b, err := json.Marshal(rep)
			if err == nil {
				err = os.WriteFile(filepath.Join(teleDir, j.Key()[:12]+".json"), append(b, '\n'), 0o644)
			}
			if err != nil {
				teleErr.set(fmt.Errorf("writing telemetry report for %s: %v", j.Key()[:12], err))
			}
			return o, false, nil
		}
	}
	if *verbose {
		// Per-job lifecycle lines from the engine's Observer hook replace
		// the in-place ticker (the two would fight over the same terminal
		// line).
		eng.Observer = &jobLogger{w: stderr}
	} else {
		eng.Sinks = append(eng.Sinks, &ticker{w: stderr, total: len(jobs), start: start})
	}
	sum, err := eng.RunJobs(context.Background(), spec, jobs)
	fmt.Fprintln(stderr)
	if err != nil {
		return err
	}
	if err := csvSink.Flush(); err != nil {
		return fmt.Errorf("flushing %s: %v", csvPath, err)
	}
	if err := jsonlSink.Flush(); err != nil {
		return fmt.Errorf("flushing %s: %v", jsonlPath, err)
	}
	if err := teleErr.get(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sweep %q: %d jobs, %d executed, %d cache hits in %v\n",
		spec.Name, sum.Total, sum.Executed, sum.CacheHits, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "wrote %s\nwrote %s\n", csvPath, jsonlPath)
	if teleDir != "" {
		fmt.Fprintf(stdout, "wrote %d telemetry reports to %s\n", sum.Executed, teleDir)
	}
	return nil
}

// teleError records the first telemetry-sink failure across workers.
type teleError struct {
	mu  sync.Mutex
	err error
}

func (e *teleError) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *teleError) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// ticker is the sweep.Sink behind mcsweep's in-place progress line: the
// engine hands it every result in job order, and it rewrites one stderr
// line with the count, the cache hits, the rate and the ETA.
type ticker struct {
	w          io.Writer
	total      int
	start      time.Time
	done, hits int
	width      int // the widest line yet, so \r fully overwrites
}

func (t *ticker) Write(r sweep.Result) error {
	t.done++
	if r.Cached {
		t.hits++
	}
	line := fmt.Sprintf("%d/%d jobs (%d cache hits", t.done, t.total, t.hits)
	if elapsed := time.Since(t.start).Seconds(); elapsed > 0 {
		rate := float64(t.done) / elapsed
		line += fmt.Sprintf(", %.1f jobs/s", rate)
		if t.done < t.total && rate > 0 {
			eta := time.Duration(float64(t.total-t.done) / rate * float64(time.Second))
			line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
	}
	line += ")"
	t.width = max(t.width, len(line))
	fmt.Fprintf(t.w, "\r%-*s", t.width, line) // a lost tick does not fail the sweep
	return nil
}

// jobLogger implements sweep.Observer for mcsweep -v: one line per job as
// it finishes, with its cache disposition and wall time. Workers call it
// concurrently, hence the mutex.
type jobLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *jobLogger) JobStarted(j sweep.Job) {}

func (l *jobLogger) JobFinished(j sweep.Job, cached bool, seconds float64) {
	disposition := "executed"
	if cached {
		disposition = "cache hit"
	}
	l.mu.Lock()
	fmt.Fprintf(l.w, "%s: %s in %.3fs\n", j.Key(), disposition, seconds)
	l.mu.Unlock()
}

// loadSpec resolves the -spec argument: a readable file is parsed as JSON,
// anything else must be a builtin name.
func loadSpec(arg string) (sweep.Spec, error) {
	if b, err := os.ReadFile(arg); err == nil {
		var spec sweep.Spec
		if err := json.Unmarshal(b, &spec); err != nil {
			return spec, fmt.Errorf("parsing %s: %v", arg, err)
		}
		if spec.Name == "" {
			spec.Name = strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
		}
		return spec, nil
	} else if !os.IsNotExist(err) {
		return sweep.Spec{}, fmt.Errorf("reading %s: %v", arg, err)
	}
	if spec, ok := sweep.Builtin(arg); ok {
		return spec, nil
	}
	return sweep.Spec{}, fmt.Errorf("spec %q: no such file or builtin (builtins: %s)",
		arg, strings.Join(sweep.BuiltinNames(), ", "))
}
