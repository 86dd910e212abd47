package serve

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mcnet/internal/obs"
	"mcnet/internal/sweep"
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
	// the Prometheus histogram and request counter, and the JSON count,
	// mean and quantiles.
	hist *obs.Histogram
	// maxNs is the slowest response so far, CAS-maxed.
	maxNs atomic.Int64
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
	for ns := int64(d); ; {
		old := rs.maxNs.Load()
		if ns <= old || rs.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
}

// latDoc carries latency aggregates in milliseconds over the process
// lifetime. The quantiles are interpolated inside the histogram's buckets
// (obs.HistSnapshot.Quantile) and clamped to the exact max.
type latDoc struct {
	Mean sweep.Float `json:"mean"`
	P50  sweep.Float `json:"p50"`
	P90  sweep.Float `json:"p90"`
	P99  sweep.Float `json:"p99"`
	Max  sweep.Float `json:"max"`
}

type routeDoc struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors"`
	Latency *latDoc `json:"latency_ms,omitempty"`
}

type cacheDoc struct {
	// MemoryHits/DiskHits/Misses count outcome-cache lookups (simulate,
	// compare and sweep jobs); HitRatio is hits over lookups, 0 before any.
	MemoryHits int64   `json:"memory_hits"`
	DiskHits   int64   `json:"disk_hits"`
	Misses     int64   `json:"misses"`
	HitRatio   float64 `json:"hit_ratio"`
	// AnalyzeHits/AnalyzeMisses count the analyze fast path's rendered-
	// response cache.
	AnalyzeHits   int64 `json:"analyze_hits"`
	AnalyzeMisses int64 `json:"analyze_misses"`
}

type queueDoc struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
}

type metricsDoc struct {
	Requests            map[string]routeDoc `json:"requests"`
	Cache               cacheDoc            `json:"cache"`
	Queue               queueDoc            `json:"queue"`
	SimulationsExecuted int64               `json:"simulations_executed"`
}

func (m *metrics) snapshot() map[string]routeDoc {
	out := make(map[string]routeDoc, len(m.routes))
	for route, rs := range m.routes {
		h := rs.hist.Snapshot()
		doc := routeDoc{Count: int64(h.Count), Errors: rs.errors.Load()}
		if h.Count > 0 {
			max := float64(rs.maxNs.Load()) / float64(time.Millisecond)
			quantile := func(q float64) sweep.Float {
				return sweep.Float(min(1e3*h.Quantile(q), max))
			}
			doc.Latency = &latDoc{
				Mean: sweep.Float(1e3 * h.Sum / float64(h.Count)),
				P50:  quantile(0.5),
				P90:  quantile(0.9),
				P99:  quantile(0.99),
				Max:  sweep.Float(max),
			}
		}
		out[route] = doc
	}
	return out
}

// handleMetrics implements GET /metrics. The document is JSON (the original
// wire format, kept byte-compatible for existing consumers) unless the
// client asks for the Prometheus text exposition via Accept — text/plain
// or the OpenMetrics type — which is also available unconditionally at
// GET /metrics/prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsPrometheus(r.Header.Get("Accept")) {
		s.handleMetricsProm(w, r)
		return
	}
	memHits := s.cache.memHits.Load()
	diskHits := s.cache.nextHits.Load()
	misses := s.cache.misses.Load()
	ratio := 0.0
	if lookups := memHits + diskHits + misses; lookups > 0 {
		ratio = float64(memHits+diskHits) / float64(lookups)
	}
	queued, running, done, failed, depth := s.store.statusCounts()
	doc := metricsDoc{
		Requests: s.metrics.snapshot(),
		Cache: cacheDoc{
			MemoryHits:    memHits,
			DiskHits:      diskHits,
			Misses:        misses,
			HitRatio:      ratio,
			AnalyzeHits:   s.respHits.Load(),
			AnalyzeMisses: s.respMisses.Load(),
		},
		Queue: queueDoc{
			Depth:    depth,
			Capacity: s.cfg.QueueDepth,
			Queued:   queued,
			Running:  running,
			Done:     done,
			Failed:   failed,
		},
		SimulationsExecuted: s.executed.Load(),
	}
	writeJSON(w, http.StatusOK, doc)
}

// acceptsPrometheus reports whether an Accept header prefers the text
// exposition over the JSON document. The check is deliberately simple:
// any mention of text/plain or an OpenMetrics type selects text; JSON
// consumers (which send nothing, */*, or application/json) keep JSON.
func acceptsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
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
