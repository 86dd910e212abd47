// Package serve exposes the mcnet stack — the paper's analytic latency
// model, the discrete-event simulator, and the sweep engine with its whole
// scenario space (organization specs, traffic patterns, routing policies,
// link-technology tiers, workload axes) — as a long-running HTTP JSON
// service: capacity planning as a service, the use case the model was built
// for (predicting multi-cluster network latency without running the
// machine).
//
// Endpoints:
//
//	POST /v1/analyze       pure model, synchronous — the fast path. Rendered
//	                       responses are LRU-cached by canonicalized request
//	                       and by the request's bytes, so repeated requests
//	                       are answered byte-identically without re-evaluating
//	                       the model, and a byte-identical repeat without
//	                       decoding the request.
//	POST /v1/simulate      one simulation as an asynchronous job.
//	POST /v1/compare       model + simulation at one operating point.
//	GET  /v1/jobs/{id}     job status and result. Job ids are content hashes
//	                       of the canonicalized request, so resubmitting an
//	                       identical request addresses the same job.
//	GET  /v1/jobs/{id}/telemetry  the job's per-tier contention breakdown:
//	                       a live snapshot while the simulation runs, the
//	                       frozen end-of-run report once it finishes.
//	POST /v1/sweep         a sweep.Spec, streamed back as NDJSON rows in job
//	                       order as jobs complete.
//	GET  /v1/fidelity      the latest reproduction run's machine-readable
//	                       verdict (paper_runs/<stamp>/analysis/report.json).
//	GET  /healthz          liveness.
//	GET  /metrics          the Prometheus text exposition: per-route request
//	                       counts, errors and latency histograms, cache
//	                       lookups, queue and job gauges, engine and per-tier
//	                       simulation counters.
//
// Three layers keep repeated and concurrent work cheap:
//
//   - Jobs are identified by the sweep engine's content hashes, so identical
//     simulate/compare submissions deduplicate onto one job record, and the
//     bounded queue rejects overload with 429 instead of buffering without
//     limit.
//
//   - Simulation outcomes live in an in-memory LRU layered over an optional
//     disk cache (sweep.DirCache) that can be shared with cmd/mcsweep runs:
//     a sweep already computed on the command line is served from cache.
//
//   - A singleflight group collapses concurrent executions of the same job
//     across queue workers and streaming sweeps, so a hot scenario is
//     simulated once no matter how many requests are waiting on it.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcnet/internal/mcsim"
	"mcnet/internal/obs"
	"mcnet/internal/sweep"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a serving-appropriate default.
type Config struct {
	// Workers bounds the queue workers executing simulate/compare jobs,
	// and the worker pool of each streaming sweep (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; submissions beyond it
	// are rejected with 429 (0 = 64).
	QueueDepth int
	// MaxJobs bounds retained job records; the oldest finished records are
	// evicted first (0 = 4096).
	MaxJobs int
	// CacheSize bounds each of the in-memory LRUs: simulation outcomes,
	// rendered analyze responses (canonical keys and byte aliases share
	// it) and finished runs' telemetry reports (0 = 4096). Prepared
	// analytic models live in the sweep package's process-wide memo,
	// bounded at 64 models whatever CacheSize says.
	CacheSize int
	// Disk, if non-nil, is a second outcome-cache layer under the LRU —
	// typically a *sweep.DirCache shared with cmd/mcsweep runs.
	Disk sweep.Cache
	// MaxSweepJobs rejects sweep specs expanding beyond this many jobs
	// (0 = 10000).
	MaxSweepJobs int
	// ConcurrentSweeps bounds simultaneously streaming sweeps; further ones
	// are rejected with 429 (0 = 2).
	ConcurrentSweeps int
	// PaperRuns is the reproduction-pipeline run-tree root behind
	// GET /v1/fidelity ("" = "paper_runs"). The endpoint serves the latest
	// run's machine-readable verdict and 404s when no run tree exists.
	PaperRuns string
	// Logger, if non-nil, receives structured telemetry: one access-log
	// line per request and one lifecycle line per job transition, each
	// carrying the request's correlation id. nil disables logging entirely
	// (the instrumented fast path pays nothing for it).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof's profiling endpoints under
	// /debug/pprof/ (off by default: profiling handlers on a production
	// listener are an explicit operator decision).
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.MaxSweepJobs <= 0 {
		c.MaxSweepJobs = 10000
	}
	if c.ConcurrentSweeps <= 0 {
		c.ConcurrentSweeps = 2
	}
	if c.PaperRuns == "" {
		c.PaperRuns = "paper_runs"
	}
	return c
}

// Server is the capacity-planning service. Create one with New, mount
// Handler on an http.Server, and Close it on shutdown.
type Server struct {
	cfg     Config
	handler http.Handler

	cache      *layeredCache // simulation outcomes, keyed by Job.Key
	resp       *lruCache     // rendered analyze responses, by canonical key and by request bytes
	respHits   atomic.Int64
	respMisses atomic.Int64
	flight     flightGroup
	executed   atomic.Int64 // simulations actually run

	store    *jobStore
	sweepSem chan struct{}
	metrics  *metrics
	logger   *slog.Logger

	// Sweep-engine telemetry behind /metrics.
	engineStarted    atomic.Int64
	engineExecuted   atomic.Int64
	engineCached     atomic.Int64
	engineBusy       atomic.Int64
	engineJobSeconds *obs.Histogram
	sweepsTotal      atomic.Int64
	// progress tracks live per-job simulator probes by Job.Key, surfaced on
	// GET /v1/jobs/{id} while a job runs.
	progress progressTable
	// teleReports retains finished runs' full contention reports by Job.Key
	// for GET /v1/jobs/{id}/telemetry; teleTotals aggregates per-tier
	// counters across executed simulations for the Prometheus exposition.
	teleReports *lruCache
	teleTotals  teleTotals

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a Server and starts its queue workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:              cfg,
		cache:            newLayeredCache(cfg.CacheSize, cfg.Disk),
		resp:             newLRU(cfg.CacheSize),
		store:            newJobStore(cfg.QueueDepth, cfg.MaxJobs),
		sweepSem:         make(chan struct{}, cfg.ConcurrentSweeps),
		logger:           cfg.Logger,
		engineJobSeconds: obs.NewHistogram(engineJobBuckets),
		teleReports:      newLRU(cfg.CacheSize),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	// The route list is closed at construction: it keys both the
	// instrumentation (sharded, lock-free metric lookup) and the route
	// label vocabulary of the Prometheus exposition.
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /healthz", s.handleHealthz},
		{"GET /metrics", s.handleMetrics},
		{"POST /v1/analyze", s.handleAnalyze},
		{"POST /v1/simulate", s.handleSimulate},
		{"POST /v1/compare", s.handleCompare},
		{"GET /v1/jobs/{id}", s.handleJobGet},
		{"GET /v1/jobs/{id}/telemetry", s.handleJobTelemetry},
		{"POST /v1/sweep", s.handleSweep},
		{"GET /v1/fidelity", s.handleFidelity},
	}
	names := make([]string, len(routes))
	for i, r := range routes {
		names[i] = r.pattern
	}
	s.metrics = newMetrics(names)
	mux := http.NewServeMux()
	for _, r := range routes {
		mux.HandleFunc(r.pattern, s.instrument(r.pattern, r.h))
	}
	if cfg.Pprof {
		// Profiling endpoints are deliberately uninstrumented: a profile
		// download's latency would drown the request histograms, and the
		// route set above stays a closed vocabulary.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = mux

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.ctx.Done():
					return
				case rec := <-s.store.queue:
					s.runJobRecord(rec)
				}
			}
		}()
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// instrument wraps a handler with correlation and measurement under the
// given route label: an X-Request-ID is accepted from the caller (or
// generated with the deterministic obs prefix), echoed on the response,
// carried via the request context into handlers and job submission, and
// stamped on the access-log line written after the handler returns.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		d := time.Since(start)
		s.metrics.record(route, sw.code, d)
		if s.logger != nil {
			attrs := []slog.Attr{
				slog.String("route", route),
				slog.Int("status", sw.code),
				slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)),
				slog.String("request_id", id),
			}
			if cache := sw.Header().Get("X-Cache"); cache != "" {
				attrs = append(attrs, slog.String("cache", cache))
			}
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	}
}

// Close stops the queue workers and waits for in-flight jobs to finish.
// Queued-but-unstarted jobs keep their "queued" status; the process is going
// away with them.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// testHookExecute, when non-nil, replaces sweep.Execute for job outcomes.
// Tests use it to make execution observable and instant.
var testHookExecute func(sweep.Job) (sweep.Outcome, error)

// outcome satisfies one job from the layered cache or by running the
// simulator, single-flighted so concurrent requests for the same job compute
// it once. The boolean reports whether the result was shared (cache or
// another caller's run) rather than computed here. It is also the sweep
// engine's Exec hook, so streaming sweeps share the cache and singleflight
// group with the queue workers.
func (s *Server) outcome(j sweep.Job) (sweep.Outcome, bool, error) {
	key := j.Key()
	if o, ok := s.cache.Get(key); ok {
		return o, true, nil
	}
	executed := false
	v, err, _ := s.flight.Do(key, func() (any, error) {
		// A flight that finished since the lookup above has filled the
		// memory layer. The re-check belongs to that counted lookup, so it
		// reads the memory layer directly.
		if o, ok := s.cache.mem.Get(key); ok {
			return o, nil
		}
		var o sweep.Outcome
		var err error
		if testHookExecute != nil {
			o, err = testHookExecute(j)
		} else {
			// Executions run with contention telemetry on (the cost is
			// setup-only). Its live collector, registered for the duration
			// of the run, gives GET /v1/jobs/{id} of a running job its
			// events, events/sec and simulated time, and feeds the live
			// view of GET /v1/jobs/{id}/telemetry; the final report feeds
			// the finished view and the per-tier Prometheus counters.
			p := s.progress.begin(key)
			var rep *mcsim.TelemetryReport
			o, rep, err = sweep.ExecuteTelemetry(j, func(t *mcsim.Telemetry) {
				p.tele.Store(t)
			})
			s.progress.end(key)
			if rep != nil {
				s.teleReports.Put(key, rep)
				s.teleTotals.add(rep)
			}
		}
		if err != nil {
			return nil, err
		}
		s.executed.Add(1)
		executed = true
		if err := s.cache.Put(key, o); err != nil {
			return nil, fmt.Errorf("caching outcome: %w", err)
		}
		return o, nil
	})
	if err != nil {
		return sweep.Outcome{}, false, err
	}
	return v.(sweep.Outcome), !executed, nil
}

// handleHealthz implements GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// errorDoc is the JSON body of every non-2xx response.
type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, code, append(b, '\n'))
}

func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// maxBodyBytes bounds request bodies; every accepted document is far
// smaller.
const maxBodyBytes = 1 << 20

// readBody reads the whole request body under the maxBodyBytes bound: a
// body past the bound is an error however early its JSON document ends.
func readBody(r *http.Request) ([]byte, error) {
	b, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("parsing request body: %v", err)
	}
	return b, nil
}

// decodeJSON strictly parses the request body into v (see decodeBody).
func decodeJSON(r *http.Request, v any) error {
	b, err := readBody(r)
	if err != nil {
		return err
	}
	return decodeBody(b, v)
}

// decodeBody strictly parses a request body into v: unknown fields and
// trailing garbage are errors, so a typo'd field name fails loudly instead
// of silently running the default scenario.
func decodeBody(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request body: %v", err)
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("parsing request body: trailing data after the JSON document")
	}
	return nil
}
