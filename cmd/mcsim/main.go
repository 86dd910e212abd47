// Command mcsim runs the discrete-event simulator of the heterogeneous
// multi-cluster system at one operating point and reports the measured
// latency statistics, following the paper's §4 methodology. Its flags are a
// one-point sweep spec (the pattern, routing, workload and link values use
// the sweep and serve syntax) that sweep.Expand turns into one job per
// replication: replication 0 runs with -seed itself, and replication r > 0
// with the seed mcsweep -seed gives it.
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
//	mcsim -org org2 -lambda 4e-4 -telemetry tele.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"mcnet/internal/mcsim"
	"mcnet/internal/stats"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
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
		seed     = fs.Uint64("seed", 1, "RNG seed of replication 0, and the base the other replications' seeds derive from")
		reps     = fs.Int("reps", 1, "independent replications (replication r>0 is seeded as mcsweep -seed seeds it)")
		pattern  = fs.String("pattern", "uniform", "traffic: uniform|hotspot:<frac>|cluster-local:<frac>, frac in [0,1]")
		mode     = fs.String("routing", "balanced", "ascent discipline: balanced|random-up")
		arrival  = fs.String("arrival", "poisson", "arrival process: poisson|deterministic|mmpp:<peak>:<burst>")
		sizes    = fs.String("sizes", "fixed", "message lengths: fixed|bimodal:<short>:<long>:<plong>|geometric:<mean>")
		links    = fs.String("links", "uniform", "per-tier link technology: uniform|<tier>=<an>/<as>/<bn>[+...] over icn1,ecn1,icn2,conc")
		record   = fs.String("record", "", "record the generation stream to this trace file (JSONL)")
		replay   = fs.String("replay", "", "replay a recorded trace instead of generating (ignores workload flags)")
		teleOut  = fs.String("telemetry", "", `write the per-tier contention report (JSON) to this file ("-" = stdout)`)
		verbose  = fs.Bool("v", false, "print per-cluster statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return errBadFlags
	}

	if *replay != "" && *record != "" {
		// A re-recorded trace would carry a header describing the replay
		// config, not the workload the events came from.
		return errors.New("-record cannot be combined with -replay (the trace already exists)")
	}
	var jobs []sweep.Job
	var cfgs []mcsim.Config
	if *replay != "" {
		tr, err := workload.ReadFile(*replay)
		if err != nil {
			return err
		}
		cfg, err := sweep.ReplayConfig(tr)
		if err != nil {
			return err
		}
		cfgs = []mcsim.Config{cfg}
		fmt.Fprintf(stdout, "replaying %s: %d events recorded from org %q\n", *replay, len(tr.Events), tr.Header.Org)
	} else {
		// A spec reads all-zero phases as "unset" and fills the paper's;
		// a flag set to zero is a request to check.
		if err := mcsim.CheckPhases(*warmup, *measure, *drain); err != nil {
			return fmt.Errorf("mcsim: %v", err)
		}
		var err error
		jobs, err = sweep.Expand(sweep.Spec{
			Name:       "mcsim",
			Orgs:       []string{*orgSpec},
			Messages:   []sweep.MessageGeometry{{Flits: *mFlits, FlitBytes: *lm}},
			Patterns:   []string{*pattern},
			Routing:    []string{*mode},
			Arrivals:   []string{*arrival},
			Sizes:      []string{*sizes},
			Links:      []string{*links},
			Topologies: []string{*topoAxis},
			Loads:      sweep.Loads{Lambdas: []float64{*lambda}},
			Warmup:     *warmup, Measure: *measure, Drain: *drain,
			BaseSeed: *seed, Reps: *reps,
		})
		if err != nil {
			return err
		}
		jobs[0].SimSeed = *seed
		// The jobs carry the canonical organization; the summary keeps the
		// name the flag gave it (Table1-Org2 for org2). Expand has parsed it.
		org, _ := system.ParseOrganization(*orgSpec)
		for _, j := range jobs {
			cfg, err := j.Config()
			if err != nil {
				return err
			}
			cfg.Org.Name = org.Name
			cfgs = append(cfgs, cfg)
		}
		cfg := cfgs[0]
		fmt.Fprint(stdout, system.MustNew(cfg.Org).Summary())
		fmt.Fprintf(stdout, "  parameters: %s   λ_g=%g   routing=%s   pattern=%s   arrival=%s   sizes=%s\n\n",
			cfg.Par, *lambda, *mode, *pattern, cfg.Arrival.Name(), cfg.Sizes.Name())
	}

	if len(cfgs) > 1 && (*teleOut != "" || *record != "") {
		return errors.New("-telemetry and -record need -reps 1 (one report or trace per run)")
	}
	var traceFile *os.File
	var traceWriter *workload.Writer
	var traceErr error
	if *record != "" {
		hdr, err := jobs[0].TraceHeader()
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
		cfgs[0].Record = func(e workload.Event) {
			if traceErr == nil {
				traceErr = traceWriter.Add(e)
			}
		}
	}

	var means stats.Running
	for rep, cfg := range cfgs {
		if *teleOut != "" {
			cfg.Telemetry = &mcsim.TelemetryConfig{}
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
		if res.Stalled {
			fmt.Fprintf(stdout, "rep %d: warning: stalled with %d worms deadlocked in the network, %d of %d measured messages delivered (partial results follow)\n",
				rep, sim.Network().InFlight(), res.DeliveredMeasured, cfg.Measure)
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
		if *teleOut != "" {
			if err := writeTelemetryJSON(*teleOut, stdout, sim.Telemetry().Snapshot()); err != nil {
				return fmt.Errorf("writing -telemetry: %v", err)
			}
			if *teleOut != "-" {
				fmt.Fprintf(stdout, "  telemetry report written to %s\n", *teleOut)
			}
		}
	}
	if len(cfgs) > 1 {
		fmt.Fprintf(stdout, "\nacross %d replications: mean latency = %.4f ± %.4f (sd)\n",
			len(cfgs), means.Mean(), means.StdDev())
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
