package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"mcnet/internal/obs"
	"mcnet/internal/sweep"
)

// jobRequest is the body of POST /v1/simulate and POST /v1/compare: one
// fully specified simulation. Every spec string uses the existing CLI
// parser (org spec, pattern, routing, arrival, sizes, links), so the whole
// scenario space of the simulator is reachable over the wire. Zero phase
// counts select the paper's 10000/100000/10000 methodology; seed 0 derives
// the seed from the job identity exactly like a sweep with the default base
// seed, so a served job and a CLI sweep of the same point share one cache
// entry. Model applies to /v1/compare only.
type jobRequest struct {
	Org       string      `json:"org"`
	Lambda    float64     `json:"lambda"`
	Flits     int         `json:"flits,omitempty"`
	FlitBytes int         `json:"flit_bytes,omitempty"`
	Pattern   string      `json:"pattern,omitempty"`
	Routing   string      `json:"routing,omitempty"`
	Arrival   string      `json:"arrival,omitempty"`
	Sizes     string      `json:"sizes,omitempty"`
	Links     string      `json:"links,omitempty"`
	Topo      string      `json:"topo,omitempty"`
	Warmup    int         `json:"warmup,omitempty"`
	Measure   int         `json:"measure,omitempty"`
	Drain     int         `json:"drain,omitempty"`
	Seed      uint64      `json:"seed,omitempty"`
	Rep       int         `json:"rep,omitempty"`
	Tech      *sweep.Tech `json:"tech,omitempty"`
	Model     string      `json:"model,omitempty"`
}

// toJob canonicalizes the request into a sweep.Job, the unit of execution,
// identity and caching everywhere in this codebase: the one job that
// sweep.Expand makes of a one-point spec holding the request's fields, so a
// served job and a sweep of the same point get the same defaults, identity
// and cache key.
func (req jobRequest) toJob() (sweep.Job, error) {
	flits, flitBytes, err := resolveGeometry(req.Flits, req.FlitBytes)
	if err != nil {
		return sweep.Job{}, err
	}
	if err := checkLambda(req.Lambda); err != nil {
		return sweep.Job{}, err
	}
	if req.Rep < 0 {
		return sweep.Job{}, fmt.Errorf("negative rep %d", req.Rep)
	}
	axis := func(v string) []string {
		if v == "" {
			return nil
		}
		return []string{v}
	}
	jobs, err := sweep.Expand(sweep.Spec{
		Name:       "served",
		Orgs:       []string{req.Org},
		Messages:   []sweep.MessageGeometry{{Flits: flits, FlitBytes: flitBytes}},
		Patterns:   axis(req.Pattern),
		Routing:    axis(req.Routing),
		Arrivals:   axis(req.Arrival),
		Sizes:      axis(req.Sizes),
		Links:      axis(req.Links),
		Topologies: axis(req.Topo),
		Loads:      sweep.Loads{Lambdas: []float64{req.Lambda}},
		Warmup:     req.Warmup, Measure: req.Measure, Drain: req.Drain,
		Tech: req.Tech,
	})
	if err != nil {
		return sweep.Job{}, err
	}
	// The replication is set here rather than as Reps = Rep+1, which would
	// expand every replication before it.
	j := jobs[0]
	j.Rep, j.SimSeed = req.Rep, 0
	j.SimSeed = sweep.DeriveSeed(1, j)
	if req.Seed != 0 {
		j.SimSeed = req.Seed
	}
	return j, nil
}

type jobKind string

const (
	kindSimulate jobKind = "simulate"
	kindCompare  jobKind = "compare"
)

type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// jobRecord is one submitted job. All fields after the identity are guarded
// by the store's mutex.
type jobRecord struct {
	id     string
	kind   jobKind
	model  string // compare only
	job    sweep.Job
	status jobStatus
	result json.RawMessage
	errMsg string
	// Lifecycle timestamps: created at first submission, started when a
	// worker picks the job up, finished when it completes or fails. A
	// re-enqueued failed job resets started/finished; created is the
	// record's birth and never changes (the id is content-derived, so
	// "again" is the same record).
	created  time.Time
	started  time.Time
	finished time.Time
}

// jobID derives the job's identity from its canonicalized content, so
// resubmitting an identical request addresses the same record. The kind and
// model are part of the identity (a compare and a simulate of the same
// point are different resources); the underlying simulation outcome is
// still shared through Job.Key.
func jobID(kind jobKind, model string, j sweep.Job) string {
	sum := sha256.Sum256([]byte(string(kind) + "|" + model + "|" + j.Key()))
	return hex.EncodeToString(sum[:])
}

var errQueueFull = errors.New("job queue full")

// jobStore holds job records by id and the bounded queue feeding the
// workers.
type jobStore struct {
	mu    sync.Mutex
	max   int
	jobs  map[string]*jobRecord
	order []string // insertion order, for evicting the oldest finished
	queue chan *jobRecord
}

func newJobStore(queueDepth, maxJobs int) *jobStore {
	return &jobStore{
		max:   maxJobs,
		jobs:  make(map[string]*jobRecord),
		queue: make(chan *jobRecord, queueDepth),
	}
}

// submit registers rec and enqueues it, deduplicating by id: an existing
// queued/running/done record is returned instead, so identical submissions
// share one job. A failed record is re-enqueued — failures can be transient
// (a full disk under the outcome cache, say) and must not poison the job id
// until eviction. errQueueFull reports backpressure — either the worker
// queue or the record table is full of unfinished work.
func (st *jobStore) submit(rec *jobRecord) (*jobRecord, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if existing, ok := st.jobs[rec.id]; ok {
		if existing.status != statusFailed {
			return existing, true, nil
		}
		select {
		case st.queue <- existing:
		default:
			return nil, false, errQueueFull
		}
		existing.status = statusQueued
		existing.errMsg = ""
		existing.started = time.Time{}
		existing.finished = time.Time{}
		return existing, false, nil
	}
	if len(st.jobs) >= st.max {
		st.evictLocked()
	}
	if len(st.jobs) >= st.max {
		return nil, false, errQueueFull
	}
	select {
	case st.queue <- rec:
	default:
		return nil, false, errQueueFull
	}
	rec.created = time.Now()
	st.jobs[rec.id] = rec
	st.order = append(st.order, rec.id)
	return rec, false, nil
}

// evictLocked drops the oldest finished records until the table is under
// its cap (or only unfinished work remains).
func (st *jobStore) evictLocked() {
	keep := st.order[:0]
	for _, id := range st.order {
		rec, ok := st.jobs[id]
		if !ok {
			continue
		}
		if len(st.jobs) >= st.max && (rec.status == statusDone || rec.status == statusFailed) {
			delete(st.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	st.order = keep
}

// setRunning moves rec to running and stamps its start time, returned for
// the caller's wall-time accounting.
func (st *jobStore) setRunning(rec *jobRecord) time.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec.status = statusRunning
	rec.started = time.Now()
	return rec.started
}

// complete finishes rec with a rendered result document or an error.
func (st *jobStore) complete(rec *jobRecord, result json.RawMessage, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec.finished = time.Now()
	if err != nil {
		rec.status = statusFailed
		rec.errMsg = err.Error()
		return
	}
	rec.status = statusDone
	rec.result = result
}

// jobDoc is the GET /v1/jobs/{id} document. Field order is fixed by the
// struct, and a finished job's rendering never changes — the lifecycle
// timestamps and wall time freeze at completion, and progress appears only
// while the job runs — so repeated reads of a finished job are
// byte-identical.
type jobDoc struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	Status      string          `json:"status"`
	Model       string          `json:"model,omitempty"`
	Created     string          `json:"created,omitempty"`
	Started     string          `json:"started,omitempty"`
	Finished    string          `json:"finished,omitempty"`
	WallTimeSec float64         `json:"wall_time_sec,omitempty"`
	Progress    *progressDoc    `json:"progress,omitempty"`
	Job         sweep.Job       `json:"job"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// stamp renders a lifecycle timestamp for the job document: RFC 3339 in
// UTC, empty (and so omitted) while the transition hasn't happened.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// get renders the current document for id. now anchors the wall-time-so-far
// of a running job, and prog resolves its live simulator probe by Job.Key
// (nil when the execution is shared and hasn't registered one, or is between
// cache lookup and event loop).
func (st *jobStore) get(id string, now time.Time, prog func(key string) *jobProgress) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.jobs[id]
	if !ok {
		return nil, false
	}
	doc := jobDoc{
		ID:       rec.id,
		Kind:     string(rec.kind),
		Status:   string(rec.status),
		Model:    rec.model,
		Created:  stamp(rec.created),
		Started:  stamp(rec.started),
		Finished: stamp(rec.finished),
		Job:      rec.job,
		Result:   rec.result,
		Error:    rec.errMsg,
	}
	if !rec.started.IsZero() {
		switch rec.status {
		case statusRunning:
			doc.WallTimeSec = now.Sub(rec.started).Seconds()
			if p := prog(rec.job.Key()); p != nil {
				doc.Progress = p.snapshot(now)
			}
		case statusDone, statusFailed:
			doc.WallTimeSec = rec.finished.Sub(rec.started).Seconds()
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, false
	}
	return append(b, '\n'), true
}

// statusCounts tallies records by status plus the live queue depth.
func (st *jobStore) statusCounts() (queued, running, done, failed, depth int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range st.jobs {
		switch rec.status {
		case statusQueued:
			queued++
		case statusRunning:
			running++
		case statusDone:
			done++
		case statusFailed:
			failed++
		}
	}
	return queued, running, done, failed, len(st.queue)
}

// jobRef is the submission response: the job's content-derived identity and
// where to poll it. Deliberately free of volatile fields, so identical
// submissions get byte-identical bodies whether the job is new, queued,
// running or long done.
type jobRef struct {
	ID   string `json:"id"`
	Href string `json:"href"`
}

// handleSimulate implements POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.submitJob(w, r, kindSimulate)
}

// handleCompare implements POST /v1/compare.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.submitJob(w, r, kindCompare)
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, kind jobKind) {
	var req jobRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	model := ""
	switch kind {
	case kindSimulate:
		if req.Model != "" {
			writeError(w, http.StatusBadRequest,
				"model selects the analytic curve; it applies to /v1/analyze and /v1/compare, not /v1/simulate")
			return
		}
	case kindCompare:
		model = req.Model
		if model == "" {
			model = "calibrated"
		}
		if model == "none" {
			writeError(w, http.StatusBadRequest, `model "none" makes /v1/compare a plain /v1/simulate`)
			return
		}
		if _, err := sweep.ModelOptions(model); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	j, err := req.toJob()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec := &jobRecord{id: jobID(kind, model, j), kind: kind, model: model, job: j, status: statusQueued}
	_, existed, err := s.store.submit(rec)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d pending, %d records); retry later", len(s.store.queue), s.cfg.MaxJobs)
		return
	}
	if s.logger != nil && !existed {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "job queued",
			slog.String("job_id", rec.id),
			slog.String("kind", string(kind)),
			slog.String("request_id", obs.RequestID(r.Context())))
	}
	code := http.StatusAccepted
	if existed {
		w.Header().Set("X-Cache", "hit")
		code = http.StatusOK
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeJSON(w, code, jobRef{ID: rec.id, Href: "/v1/jobs/" + rec.id})
}

// handleJobGet implements GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !sweep.ValidKey(id) {
		writeError(w, http.StatusBadRequest, "malformed job id")
		return
	}
	doc, ok := s.store.get(id, time.Now(), s.progress.lookup)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeRaw(w, http.StatusOK, doc)
}

// compareDoc is the result document of a compare job: the simulation
// outcome plus the model's prediction at the same operating point.
type compareDoc struct {
	Analysis          sweep.Float `json:"analysis"`
	AnalysisSaturated bool        `json:"analysis_saturated"`
	sweep.Outcome
	// RelativeError is |analysis−simulation|/simulation, null when either
	// side is unavailable (saturated model, undelivered simulation).
	RelativeError sweep.Float `json:"relative_error"`
}

// runJobRecord executes one queued job on a worker.
func (s *Server) runJobRecord(rec *jobRecord) {
	started := s.store.setRunning(rec)
	if s.logger != nil {
		s.logger.Info("job started",
			slog.String("job_id", rec.id),
			slog.String("kind", string(rec.kind)))
	}
	o, shared, err := s.outcome(rec.job)
	finish := func(result json.RawMessage, err error) {
		s.store.complete(rec, result, err)
		if s.logger == nil {
			return
		}
		wall := slog.Float64("wall_ms", float64(time.Since(started))/float64(time.Millisecond))
		if err != nil {
			s.logger.Warn("job failed",
				slog.String("job_id", rec.id),
				slog.String("kind", string(rec.kind)),
				wall,
				slog.String("error", err.Error()))
			return
		}
		cache := "miss"
		if shared {
			cache = "hit"
		}
		s.logger.Info("job done",
			slog.String("job_id", rec.id),
			slog.String("kind", string(rec.kind)),
			wall,
			slog.String("cache", cache))
	}
	if err != nil {
		finish(nil, err)
		return
	}
	var result any = o
	if rec.kind == kindCompare {
		doc, cerr := s.compareOutcome(rec.model, rec.job, o)
		if cerr != nil {
			finish(nil, cerr)
			return
		}
		result = doc
	}
	b, err := json.Marshal(result)
	if err != nil {
		finish(nil, err)
		return
	}
	finish(b, nil)
}

// compareOutcome attaches the analytic prediction to a simulation outcome.
func (s *Server) compareOutcome(model string, j sweep.Job, o sweep.Outcome) (compareDoc, error) {
	doc := compareDoc{Outcome: o, Analysis: sweep.Float(math.NaN()), RelativeError: sweep.Float(math.NaN())}
	par, err := j.Params()
	if err != nil {
		return doc, err
	}
	lat, saturated, err := modelLatency(sweep.ModelFor(model, j.Org, j.Links, j.Topo, par), j.Lambda)
	if err != nil {
		return doc, err
	}
	doc.Analysis, doc.AnalysisSaturated = lat, saturated
	doc.RelativeError = sweep.Float(sweep.RelativeError(float64(lat), float64(o.SimLatency)))
	return doc, nil
}
