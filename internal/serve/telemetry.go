package serve

import (
	"net/http"
	"sync"

	"mcnet/internal/mcsim"
	"mcnet/internal/sweep"
)

// jobTelemetryDoc is the GET /v1/jobs/{id}/telemetry document: the job's
// identity and lifecycle status plus a full contention report. Live reports
// whether the report is a snapshot of a still-running simulation (its
// counters keep moving) or the frozen report of a finished one.
type jobTelemetryDoc struct {
	ID     string                `json:"id"`
	Status string                `json:"status"`
	Live   bool                  `json:"live"`
	Report mcsim.TelemetryReport `json:"report"`
}

// lookupJob resolves a record id to its job identity and status.
func (st *jobStore) lookupJob(id string) (sweep.Job, jobStatus, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.jobs[id]
	if !ok {
		return sweep.Job{}, "", false
	}
	return rec.job, rec.status, true
}

// handleJobTelemetry implements GET /v1/jobs/{id}/telemetry: the per-tier
// contention breakdown of the job's simulation. While the simulation runs
// the document is a live snapshot of the in-flight collector; once it
// finishes, the frozen end-of-run report is served from the retained-report
// cache. A job whose outcome was satisfied from the outcome cache (or whose
// report has been evicted) has no report to serve and 404s.
func (s *Server) handleJobTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !sweep.ValidKey(id) {
		writeError(w, http.StatusBadRequest, "malformed job id")
		return
	}
	j, status, ok := s.store.lookupJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	key := j.Key()
	doc := jobTelemetryDoc{ID: id, Status: string(status)}
	// A live collector wins over a retained report: the job is (re)running
	// and the snapshot is current. The probe exists for the whole execution
	// but publishes its collector only once the simulator is constructed.
	if p := s.progress.lookup(key); p != nil {
		if t := p.tele.Load(); t != nil {
			doc.Live = true
			doc.Report = t.Snapshot()
			writeJSON(w, http.StatusOK, doc)
			return
		}
	}
	if rep, ok := s.teleReports.Get(key); ok {
		doc.Report = *rep.(*mcsim.TelemetryReport)
		writeJSON(w, http.StatusOK, doc)
		return
	}
	writeError(w, http.StatusNotFound,
		"no telemetry for job %s: its outcome was served from cache without executing here (or the report was evicted); resubmit after a cache miss to capture one", id)
}

// teleTotals accumulates per-tier contention counters across every executed
// simulation, behind the mcserved_sim_tier_* Prometheus families. The label
// vocabulary is the closed four-tier set — per-channel series would be
// unbounded cardinality (channel count varies per organization), so only
// tier aggregates are exported, as obs.LintExposition's cardinality cap
// enforces.
type teleTotals struct {
	mu       sync.Mutex
	busy     [4]float64
	blocking [4]float64
	grants   [4]float64
	messages float64
}

// add folds one finished run's report into the totals.
func (t *teleTotals) add(rep *mcsim.TelemetryReport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, tier := range rep.Tiers {
		if i >= len(t.busy) {
			break
		}
		t.busy[i] += tier.BusyTime
		t.blocking[i] += tier.BlockingTime
		t.grants[i] += float64(tier.Grants)
	}
	t.messages += float64(rep.Decomposition.Messages)
}

// snapshot returns a consistent copy for the exposition.
func (t *teleTotals) snapshot() (busy, blocking, grants [4]float64, messages float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy, t.blocking, t.grants, t.messages
}
