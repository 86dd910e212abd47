package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"mcnet/internal/obs"
)

// metrics aggregates per-route request statistics for GET /metrics.
//
// The hot path is sharded per route and lock-free: record is a handful of
// atomic operations on the route's own counters and histogram, so it never
// contends with another route and never blocks a scrape.
// BenchmarkMetricsRecordParallel guards against that regressing.
type metrics struct {
	// routes is immutable after newMetrics: the route set is the mux's
	// registration list, so lookup is a lock-free map read.
	routes map[string]*routeStats
	names  []string // registration order, for deterministic exposition
}

type routeStats struct {
	errors atomic.Int64 // responses with status >= 400
	// hist (seconds) is the one latency and request-count store: it feeds
	// the request counter and the latency histogram of the exposition.
	hist *obs.Histogram
}

func newMetrics(routes []string) *metrics {
	m := &metrics{routes: make(map[string]*routeStats, len(routes)), names: routes}
	for _, r := range routes {
		m.routes[r] = &routeStats{hist: obs.NewHistogram(obs.DefLatencyBuckets)}
	}
	return m
}

func (m *metrics) record(route string, code int, d time.Duration) {
	rs, ok := m.routes[route]
	if !ok {
		// Routes are registered up front; an unknown label would be a
		// programming error. Drop rather than racing a map write.
		return
	}
	if code >= 400 {
		rs.errors.Add(1)
	}
	rs.hist.Observe(d.Seconds())
}

// statusWriter records the response status for instrumentation and forwards
// Flush so streaming handlers keep working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
