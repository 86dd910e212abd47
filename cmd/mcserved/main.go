// Command mcserved runs the capacity-planning service: the analytic model,
// the simulator and the sweep engine behind a concurrent HTTP JSON API (see
// internal/serve for the endpoint reference).
//
// Usage:
//
//	mcserved                                  # serve on 127.0.0.1:8080
//	mcserved -addr :9000 -workers 8           # all interfaces, 8 sim workers
//	mcserved -addr 127.0.0.1:0                # ephemeral port (printed)
//	mcserved -cache results/cache             # share mcsweep's disk cache
//	mcserved -log-format json -log-level debug # structured telemetry on stderr
//	mcserved -pprof                           # profiling at /debug/pprof/
//
// A quick session against a running server:
//
//	curl -s localhost:8080/healthz
//	curl -s -d '{"org":"org1","lambda":0.0003}' localhost:8080/v1/analyze
//	curl -s -d '{"org":"org2","lambda":0.0005,"measure":10000}' localhost:8080/v1/simulate
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s -d '{"orgs":["org2"],"loads":{"points":4}}' localhost:8080/v1/sweep
//	curl -s localhost:8080/metrics            # Prometheus text exposition
//
// The server prints its resolved listen URL on startup and shuts down
// gracefully on SIGINT/SIGTERM (in-flight jobs finish, listeners drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcnet/internal/obs"
	"mcnet/internal/serve"
	"mcnet/internal/sweep"
)

// errBadFlags reports a flag-parsing failure whose details the FlagSet has
// already written to stderr.
var errBadFlags = errors.New("invalid arguments")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errBadFlags) {
			fmt.Fprintf(os.Stderr, "mcserved: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind main, factored out so tests can drive
// flag handling and the serve loop directly (cancelling ctx is the test's
// SIGTERM).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
		workers   = fs.Int("workers", 0, "simulation workers for the job queue and each streaming sweep (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "pending-job queue depth before 429 (0 = 64)")
		cacheDir  = fs.String("cache", "", "disk outcome-cache directory, shareable with mcsweep -out <dir>/cache (default: memory only)")
		lruSize   = fs.Int("lru", 0, "in-memory cache entries for outcomes and analyze responses (0 = 4096)")
		sweeps    = fs.Int("sweeps", 0, "concurrent streaming sweeps before 429 (0 = 2)")
		maxJobs   = fs.Int("max-sweep-jobs", 0, "largest accepted sweep grid (0 = 10000)")
		logFormat = fs.String("log-format", "text", "structured log format: text|json|off")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (see README §Observability)")
		paperRuns = fs.String("paper-runs", "", `reproduction run tree behind GET /v1/fidelity ("" = paper_runs)`)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return errBadFlags
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return errBadFlags
	}

	cfg := serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *lruSize,
		ConcurrentSweeps: *sweeps,
		MaxSweepJobs:     *maxJobs,
		Pprof:            *pprofOn,
		PaperRuns:        *paperRuns,
	}
	if *logFormat != "off" {
		// Telemetry goes to stderr: stdout stays the operator interface (the
		// resolved listen URL, shutdown notice) so scripts that scrape it
		// keep working under -log-format json.
		logger, err := obs.NewLogger(stderr, *logFormat, *logLevel)
		if err != nil {
			return err
		}
		cfg.Logger = logger
	}
	if *cacheDir != "" {
		disk, err := sweep.NewDirCache(*cacheDir)
		if err != nil {
			return fmt.Errorf("opening -cache: %v", err)
		}
		cfg.Disk = disk
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %v", *addr, err)
	}
	fmt.Fprintf(stdout, "mcserved: listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Derive every request context from the signal context: on
		// SIGINT/SIGTERM, in-flight streaming sweeps are cancelled at job
		// granularity instead of stalling Shutdown until its timeout.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "mcserved: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}
