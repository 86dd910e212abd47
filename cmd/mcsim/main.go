// Command mcsim runs the discrete-event simulator of the heterogeneous
// multi-cluster system at one operating point and reports the measured
// latency statistics, following the paper's §4 methodology. Its flags fill
// one sweep job (the pattern, routing, workload and link values use the
// sweep and serve syntax), which sweep.Job.Config turns into the simulator
// configuration.
//
// Usage:
//
//	mcsim -org org1 -lambda 2e-4
//	mcsim -org org2 -m 64 -lm 512 -lambda 1e-4 -reps 5
//	mcsim -org org2 -lambda 3e-4 -pattern cluster-local:0.6 -routing random-up
//	mcsim -org org2 -lambda 3e-4 -links icn2=0.04/0.02/0.004   # slow backbone
//	mcsim -org "m=4:8x3@ecn1=0.04/0.02/0.004,3x4,5x5" -lambda 3e-4
//	mcsim -org org2 -lambda 3e-4 -arrival mmpp:16:32 -sizes bimodal:8:128:0.2
//	mcsim -org org2 -topo jellyfish -lambda 3e-4 -record run.jsonl   # record the workload
//	mcsim -replay run.jsonl                                          # bit-exact re-run
//	mcsim -org org2 -lambda 4e-4 -telemetry - -telemetry-series tele.csv
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"mcnet/internal/mcsim"
	"mcnet/internal/stats"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// errBadFlags reports a flag-parsing failure whose details the FlagSet has
// already written to stderr.
var errBadFlags = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errBadFlags) {
			fmt.Fprintf(os.Stderr, "mcsim: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind main, factored out so tests can drive flag
// handling and execution directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		orgSpec  = fs.String("org", "org1", `organization: org1|org2|"m=<ports>:<count>x<levels>[@rate],..."`)
		topoAxis = fs.String("topo", "", `topology "<cluster>[+<global>]" applied over the org: fattree|jellyfish[.s<seed>], +dragonfly for ICN2`)
		mFlits   = fs.Int("m", 32, "message length M in flits")
		lm       = fs.Int("lm", 256, "flit length L_m in bytes")
		lambda   = fs.Float64("lambda", 1e-4, "offered traffic λ_g (messages/node/time-unit)")
		warmup   = fs.Int("warmup", 10000, "warm-up messages (discarded)")
		measure  = fs.Int("measure", 100000, "measured messages")
		drain    = fs.Int("drain", 10000, "drain messages (generated, not measured)")
		seed     = fs.Uint64("seed", 1, "base RNG seed")
		reps     = fs.Int("reps", 1, "independent replications (seeds seed..seed+reps-1)")
		pattern  = fs.String("pattern", "uniform", "traffic: uniform|hotspot:<frac>|cluster-local:<frac>, frac in [0,1]")
		mode     = fs.String("routing", "balanced", "ascent discipline: balanced|random-up")
		arrival  = fs.String("arrival", "poisson", "arrival process: poisson|deterministic|mmpp:<peak>:<burst>")
		sizes    = fs.String("sizes", "fixed", "message lengths: fixed|bimodal:<short>:<long>:<plong>|geometric:<mean>")
		links    = fs.String("links", "uniform", "per-tier link technology: uniform|<tier>=<an>/<as>/<bn>[+...] over icn1,ecn1,icn2,conc")
		record   = fs.String("record", "", "record the generation stream to this trace file (JSONL)")
		replay   = fs.String("replay", "", "replay a recorded trace instead of generating (ignores workload flags)")
		teleOut  = fs.String("telemetry", "", `write the per-tier contention report (JSON) to this file ("-" = stdout)`)
		teleCSV  = fs.String("telemetry-series", "", "write the telemetry time series (CSV) to this file")
		verbose  = fs.Bool("v", false, "print per-cluster statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return errBadFlags
	}

	def := units.Default()
	job := sweep.Job{
		Org: *orgSpec, Topo: *topoAxis, Flits: *mFlits, FlitBytes: *lm,
		Pattern: *pattern, Routing: *mode, Arrival: *arrival, SizeDist: *sizes, Links: *links,
		Lambda: *lambda, SimSeed: *seed,
		AlphaNet: def.AlphaNet, AlphaSw: def.AlphaSw, BetaNet: def.BetaNet,
		Warmup: *warmup, Measure: *measure, Drain: *drain,
	}
	var cfg mcsim.Config
	var err error
	if *replay != "" {
		if *record != "" {
			// A re-recorded trace would carry a header describing the
			// replay config, not the workload the events came from.
			return errors.New("-record cannot be combined with -replay (the trace already exists)")
		}
		tr, err := workload.ReadFile(*replay)
		if err != nil {
			return err
		}
		if cfg, err = sweep.ReplayConfig(tr); err != nil {
			return err
		}
		*reps = 1
		fmt.Fprintf(stdout, "replaying %s: %d events recorded from org %q\n", *replay, len(tr.Events), tr.Header.Org)
	} else {
		if cfg, err = job.Config(); err != nil {
			return err
		}
		fmt.Fprint(stdout, system.MustNew(cfg.Org).Summary())
		fmt.Fprintf(stdout, "  parameters: %s   λ_g=%g   routing=%s   pattern=%s   arrival=%s   sizes=%s\n\n",
			cfg.Par, *lambda, *mode, *pattern, cfg.Arrival.Name(), cfg.Sizes.Name())
	}

	wantTele := *teleOut != "" || *teleCSV != ""
	if wantTele {
		if *reps > 1 {
			return errors.New("-telemetry/-telemetry-series need -reps 1 (one report per run)")
		}
		cfg.Telemetry = &mcsim.TelemetryConfig{}
	}

	var traceFile *os.File
	var traceWriter *workload.Writer
	var traceErr error
	if *record != "" {
		if *reps > 1 {
			return errors.New("-record needs -reps 1 (a trace holds one run)")
		}
		hdr, err := job.TraceHeader()
		if err != nil {
			return err
		}
		if traceFile, err = os.Create(*record); err != nil {
			return err
		}
		defer traceFile.Close()
		if traceWriter, err = workload.NewWriter(traceFile, hdr); err != nil {
			return err
		}
		cfg.Record = func(e workload.Event) {
			if traceErr == nil {
				traceErr = traceWriter.Add(e)
			}
		}
	}

	var means stats.Running
	for rep := 0; rep < *reps; rep++ {
		if *replay == "" {
			cfg.Seed = job.SimSeed + uint64(rep)
		}
		start := time.Now()
		sim, err := mcsim.New(cfg)
		if err != nil {
			return err
		}
		res, err := sim.Run()
		if traceWriter != nil {
			if err := errors.Join(traceErr, traceWriter.Flush(), traceFile.Close()); err != nil {
				return fmt.Errorf("recording trace: %v", err)
			}
			fmt.Fprintf(stdout, "recorded %d events to %s\n", traceWriter.Events(), *record)
		}
		if err != nil {
			fmt.Fprintf(stdout, "rep %d: %v (partial results follow)\n", rep, err)
		}
		means.Add(res.Latency.Mean)
		fmt.Fprintf(stdout, "rep %d (seed %d): mean=%.4f  sd=%.3f  min=%.3f  max=%.3f  n=%d\n",
			rep, cfg.Seed, res.Latency.Mean, math.Sqrt(res.Latency.Variance),
			res.Latency.Min, res.Latency.Max, res.Latency.Count)
		fmt.Fprintf(stdout, "  intra: %v\n  inter: %v\n", res.IntraLatency, res.InterLatency)
		fmt.Fprintf(stdout, "  observed P_out=%.4f  generated=%d  sim-time=%.1f  events=%d  wall=%v\n",
			res.ObservedPOut, res.Generated, res.SimTime, res.Events,
			time.Since(start).Round(time.Millisecond))
		if *verbose {
			for i, pc := range res.PerCluster {
				fmt.Fprintf(stdout, "  cluster %2d: %v\n", i, pc)
			}
		}
		if wantTele {
			trep := sim.Telemetry().Snapshot()
			if *teleOut != "" {
				if err := writeTelemetryJSON(*teleOut, stdout, trep); err != nil {
					return fmt.Errorf("writing -telemetry: %v", err)
				}
				if *teleOut != "-" {
					fmt.Fprintf(stdout, "  telemetry report written to %s\n", *teleOut)
				}
			}
			if *teleCSV != "" {
				if err := writeTelemetrySeries(*teleCSV, trep); err != nil {
					return fmt.Errorf("writing -telemetry-series: %v", err)
				}
				fmt.Fprintf(stdout, "  telemetry series (%d samples) written to %s\n", len(trep.Series), *teleCSV)
			}
		}
	}
	if *reps > 1 {
		fmt.Fprintf(stdout, "\nacross %d replications: mean latency = %.4f ± %.4f (sd)\n",
			*reps, means.Mean(), means.StdDev())
	}
	return nil
}

// writeTelemetryJSON renders the contention report as indented JSON to path
// ("-" = stdout).
func writeTelemetryJSON(path string, stdout io.Writer, rep mcsim.TelemetryReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err := stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeTelemetrySeries renders the report's time series as CSV: one row per
// snapshot with the interval per-tier utilizations.
func writeTelemetrySeries(path string, rep mcsim.TelemetryReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	header := []string{"events", "time", "in_flight"}
	for _, name := range mcsim.TierNames() {
		header = append(header, "util_"+name)
	}
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	for _, p := range rep.Series {
		row := []string{
			strconv.FormatUint(p.Events, 10),
			strconv.FormatFloat(p.Time, 'g', -1, 64),
			strconv.Itoa(p.InFlight),
		}
		for _, u := range p.Util {
			row = append(row, strconv.FormatFloat(u, 'g', -1, 64))
		}
		if err := w.Write(row); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
