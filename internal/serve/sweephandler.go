package serve

import (
	"encoding/json"
	"net/http"

	"mcnet/internal/sweep"
)

// ndjsonSink streams sweep results as one JSON object per line, written by
// the sweep package's row encoder, and flushes after every row so clients
// see results as jobs complete. The engine calls Write in job order, so the
// stream is deterministic: a repeated identical sweep produces
// byte-identical rows (the cached/executed distinction is deliberately not
// serialized).
type ndjsonSink struct {
	rows *sweep.JSONLSink
	w    http.ResponseWriter
}

func newNDJSONSink(w http.ResponseWriter) *ndjsonSink {
	return &ndjsonSink{rows: sweep.NewJSONLSink(w), w: w}
}

func (s *ndjsonSink) Write(r sweep.Result) error {
	if err := s.rows.Write(r); err != nil {
		return err
	}
	if err := s.rows.Flush(); err != nil {
		return err
	}
	if f, ok := s.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// gridUpper bounds the normalized spec's cross product from its axis
// lengths alone, saturating at limit+1 — no allocation proportional to the
// grid. Non-positive dimensions contribute nothing here; Expand's
// validation rejects them with a precise message.
func gridUpper(spec sweep.Spec, limit int) int {
	loads := len(spec.Loads.Lambdas)
	if loads == 0 {
		loads = spec.Loads.Points
	}
	n := 1
	for _, d := range []int{
		len(spec.Orgs), len(spec.Messages), len(spec.Patterns), len(spec.Routing),
		len(spec.Links), len(spec.Topologies), len(spec.Arrivals), len(spec.Sizes), loads, spec.Reps,
	} {
		if d <= 0 {
			continue
		}
		if d > limit {
			return limit + 1
		}
		n *= d // n ≤ limit and d ≤ limit, so no overflow
		if n > limit {
			return limit + 1
		}
	}
	return n
}

// handleSweep implements POST /v1/sweep: the body is a sweep.Spec (the same
// JSON cmd/mcsweep reads), the response an NDJSON stream of result rows in
// job order. Each request runs its own engine wired to the server's shared
// outcome cache and singleflight group, with the request context for
// cancellation — a disconnecting client stops its sweep. Concurrent sweeps
// beyond the configured limit are rejected with 429.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// Decode and validate before taking a sweep slot: a slow client
	// trickling its body must not hold a slot, and an invalid or oversized
	// spec should never consume one.
	var spec sweep.Spec
	if err := decodeJSON(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Name == "" {
		spec.Name = "served"
	}
	spec = spec.Normalized()
	// Bound the grid arithmetically before Expand materializes anything: a
	// wire-supplied spec with loads.points in the billions must be rejected
	// without allocating its grid.
	if n := gridUpper(spec, s.cfg.MaxSweepJobs); n > s.cfg.MaxSweepJobs {
		writeError(w, http.StatusBadRequest,
			"sweep expands to more than the server's limit of %d jobs", s.cfg.MaxSweepJobs)
		return
	}
	jobs, err := sweep.Expand(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(jobs) > s.cfg.MaxSweepJobs {
		writeError(w, http.StatusBadRequest,
			"sweep expands to %d jobs, above the server's limit of %d", len(jobs), s.cfg.MaxSweepJobs)
		return
	}
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"too many concurrent sweeps (limit %d); retry later", cap(s.sweepSem))
		return
	}

	s.sweepsTotal.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	eng := &sweep.Engine{
		Workers:  s.cfg.Workers,
		Exec:     s.outcome,
		Sinks:    []sweep.Sink{newNDJSONSink(w)},
		Observer: engineObserver{s: s},
	}
	if _, err := eng.RunJobs(r.Context(), spec, jobs); err != nil && r.Context().Err() == nil {
		// The status line is long gone; report the failure in-band as a
		// final NDJSON line clients can distinguish by its "error" key.
		b, merr := json.Marshal(errorDoc{Error: err.Error()})
		if merr == nil {
			w.Write(append(b, '\n'))
		}
	}
}
