package serve

import (
	"bytes"
	"log/slog"
	"net/http"

	"mcnet/internal/mcsim"
	"mcnet/internal/obs"
	"mcnet/internal/sweep"
)

// The Prometheus text exposition of the server's telemetry. Family naming
// follows DESIGN.md §6: everything is prefixed mcserved_, counters end in
// _total, durations are _seconds histograms, and label vocabularies
// (route, result, status, disposition) are closed sets. It is the server's
// one metrics surface, the scrape a fleet coordinator consumes.

// engineJobBuckets are the per-job wall-time histogram bounds in seconds:
// cache hits resolve in microseconds, real simulations run seconds to
// minutes.
var engineJobBuckets = []float64{1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 300}

// handleMetrics implements GET /metrics: the text exposition, whatever the
// request's Accept header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	e := obs.NewExposition(&buf)

	e.Family("mcserved_requests_total", "counter", "HTTP requests served, by route.")
	for _, route := range s.metrics.names {
		e.Sample([]obs.Label{{Name: "route", Value: route}}, float64(s.metrics.routes[route].hist.Snapshot().Count))
	}
	e.Family("mcserved_request_errors_total", "counter", "HTTP responses with status >= 400, by route.")
	for _, route := range s.metrics.names {
		e.Sample([]obs.Label{{Name: "route", Value: route}}, float64(s.metrics.routes[route].errors.Load()))
	}
	e.Family("mcserved_request_duration_seconds", "histogram", "HTTP request latency, by route.")
	for _, route := range s.metrics.names {
		e.Histogram([]obs.Label{{Name: "route", Value: route}}, s.metrics.routes[route].hist.Snapshot())
	}

	e.Family("mcserved_outcome_cache_lookups_total", "counter", "Simulation-outcome cache lookups, by result layer.")
	e.Sample([]obs.Label{{Name: "result", Value: "memory_hit"}}, float64(s.cache.memHits.Load()))
	e.Sample([]obs.Label{{Name: "result", Value: "disk_hit"}}, float64(s.cache.nextHits.Load()))
	e.Sample([]obs.Label{{Name: "result", Value: "miss"}}, float64(s.cache.misses.Load()))
	e.Family("mcserved_analyze_cache_lookups_total", "counter", "Rendered analyze-response cache lookups, by result.")
	e.Sample([]obs.Label{{Name: "result", Value: "hit"}}, float64(s.respHits.Load()))
	e.Sample([]obs.Label{{Name: "result", Value: "miss"}}, float64(s.respMisses.Load()))

	queued, running, done, failed, depth := s.store.statusCounts()
	e.Family("mcserved_jobs", "gauge", "Retained job records, by status.")
	e.Sample([]obs.Label{{Name: "status", Value: "queued"}}, float64(queued))
	e.Sample([]obs.Label{{Name: "status", Value: "running"}}, float64(running))
	e.Sample([]obs.Label{{Name: "status", Value: "done"}}, float64(done))
	e.Sample([]obs.Label{{Name: "status", Value: "failed"}}, float64(failed))
	e.Family("mcserved_queue_depth", "gauge", "Jobs waiting in the worker queue.")
	e.Sample(nil, float64(depth))
	e.Family("mcserved_queue_capacity", "gauge", "Worker-queue capacity before 429 backpressure.")
	e.Sample(nil, float64(s.cfg.QueueDepth))
	e.Family("mcserved_queue_workers", "gauge", "Queue workers executing simulate/compare jobs.")
	e.Sample(nil, float64(s.cfg.Workers))
	e.Family("mcserved_queue_workers_busy", "gauge", "Queue workers currently executing a job.")
	e.Sample(nil, float64(running))

	e.Family("mcserved_simulations_executed_total", "counter", "Simulations actually run (cache misses that executed).")
	e.Sample(nil, float64(s.executed.Load()))

	// Per-tier contention aggregates from executed simulations' telemetry.
	// The tier vocabulary is the closed four-tier set; per-channel series
	// would be unbounded cardinality and are deliberately not exported.
	busy, blocking, grants, teleMessages := s.teleTotals.snapshot()
	tierNames := mcsim.TierNames()
	e.Family("mcserved_sim_tier_busy_time_total", "counter",
		"Channel busy time accumulated per tier across executed simulations (simulated time units).")
	for i, name := range tierNames {
		e.Sample([]obs.Label{{Name: "tier", Value: name}}, busy[i])
	}
	e.Family("mcserved_sim_tier_blocking_time_total", "counter",
		"Wormhole blocking time attributed per tier across executed simulations (simulated time units).")
	for i, name := range tierNames {
		e.Sample([]obs.Label{{Name: "tier", Value: name}}, blocking[i])
	}
	e.Family("mcserved_sim_tier_grants_total", "counter",
		"Channel grants per tier across executed simulations.")
	for i, name := range tierNames {
		e.Sample([]obs.Label{{Name: "tier", Value: name}}, grants[i])
	}
	e.Family("mcserved_sim_messages_measured_total", "counter",
		"Measured messages delivered across executed simulations.")
	e.Sample(nil, teleMessages)

	e.Family("mcserved_engine_jobs_started_total", "counter", "Sweep-engine jobs picked up by a worker.")
	e.Sample(nil, float64(s.engineStarted.Load()))
	e.Family("mcserved_engine_jobs_finished_total", "counter", "Sweep-engine jobs finished, by cache disposition.")
	e.Sample([]obs.Label{{Name: "disposition", Value: "executed"}}, float64(s.engineExecuted.Load()))
	e.Sample([]obs.Label{{Name: "disposition", Value: "cached"}}, float64(s.engineCached.Load()))
	e.Family("mcserved_engine_workers_busy", "gauge", "Sweep-engine workers currently on a job.")
	e.Sample(nil, float64(s.engineBusy.Load()))
	e.Family("mcserved_engine_job_duration_seconds", "histogram", "Sweep-engine per-job wall time.")
	e.Histogram(nil, s.engineJobSeconds.Snapshot())

	e.Family("mcserved_sweeps_active", "gauge", "Streaming sweeps currently in flight.")
	e.Sample(nil, float64(len(s.sweepSem)))
	e.Family("mcserved_sweeps_total", "counter", "Streaming sweeps accepted.")
	e.Sample(nil, float64(s.sweepsTotal.Load()))

	if err := e.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, "rendering exposition: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// engineObserver adapts the server's telemetry to sweep.Observer: every
// streaming sweep's engine reports job lifecycle into the shared counters,
// the busy gauge, the per-job wall-time histogram and (at debug level) the
// log stream.
type engineObserver struct{ s *Server }

// JobStarted implements sweep.Observer.
func (o engineObserver) JobStarted(j sweep.Job) {
	o.s.engineStarted.Add(1)
	o.s.engineBusy.Add(1)
}

// JobFinished implements sweep.Observer.
func (o engineObserver) JobFinished(j sweep.Job, cached bool, seconds float64) {
	o.s.engineBusy.Add(-1)
	if cached {
		o.s.engineCached.Add(1)
	} else {
		o.s.engineExecuted.Add(1)
	}
	o.s.engineJobSeconds.Observe(seconds)
	if o.s.logger != nil {
		disposition := "executed"
		if cached {
			disposition = "cache_hit"
		}
		o.s.logger.Debug("engine job finished",
			slog.String("job", j.Key()),
			slog.String("cache", disposition),
			slog.Float64("wall_s", seconds))
	}
}
