package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcnet/internal/mcsim"
)

// Result is one emitted row of a sweep: the job, the attached analytic
// prediction, and the simulation outcome.
type Result struct {
	Job Job `json:"job"`
	// Analysis is the model's Eq. 36 latency at the job's load (NaN when the
	// model is saturated there or the spec's model preset is "none").
	Analysis          Float `json:"analysis"`
	AnalysisSaturated bool  `json:"analysis_saturated"`
	Outcome
	// Stalled reports a run whose event list emptied before every measured
	// message arrived: worms left in the network wait on each other's
	// channels (a routing deadlock), and the outcome's latency is the mean
	// of the messages that got through. The engine derives it from the
	// outcome, so every cache entry, old ones included, answers it.
	Stalled bool `json:"stalled,omitempty"`
	// Cached reports that the outcome came from the cache rather than a
	// fresh simulation. It is deliberately excluded from serialized output
	// so a resumed sweep reproduces the original files byte for byte.
	Cached bool `json:"-"`
}

// Summary totals an engine run.
type Summary struct {
	Total     int // jobs in the expanded grid
	Executed  int // jobs that ran the simulator
	CacheHits int // jobs satisfied from the cache
}

// Engine executes a sweep's jobs on a bounded worker pool and streams
// results, in job order, to its sinks. The workers claim jobs from a
// shared counter and the calling goroutine emits the rows, so a job costs
// no goroutine handoff beyond the one that reports it done: a cache hit
// costs little more than its read.
type Engine struct {
	// Workers bounds the number of concurrent simulations
	// (0 = runtime.GOMAXPROCS).
	Workers int
	// Cache, if non-nil, is consulted before and written after every job.
	Cache Cache
	// Sinks receive every result in job order, as soon as its turn comes.
	Sinks []Sink
	// Exec, if non-nil, replaces Execute for jobs not satisfied by Cache,
	// and is called from whichever worker runs the job. The serving layer
	// uses it to single-flight identical jobs across concurrent sweeps and
	// queue workers sharing one outcome cache; cmd/mcsweep uses it to keep
	// each executed job's full telemetry report. The boolean reports that
	// the outcome was not executed by this call (the hook's own cache, or
	// another caller's run); the result then counts as Cached.
	Exec func(Job) (Outcome, bool, error)
	// Observer, if non-nil, receives per-job lifecycle telemetry from the
	// workers. Unlike the Sinks (which see results in job order), the
	// Observer sees events as they happen, from whichever worker they happen
	// on — it must be safe for concurrent use.
	Observer Observer
}

// Observer receives engine job lifecycle events. JobStarted fires when a
// worker picks a job up (before the cache lookup); JobFinished fires once
// for every JobStarted, when the job resolves, with whether it was
// satisfied from the cache and its wall time in seconds. A job that fails
// or is cancelled finishes as not cached. Both may be called concurrently
// from many workers.
type Observer interface {
	JobStarted(j Job)
	JobFinished(j Job, cached bool, seconds float64)
}

// testHookJobStart, when non-nil, is invoked by a worker as it begins
// executing (not cache-hitting) a job. Tests use it to observe concurrency.
var testHookJobStart func(Job)

func (e *Engine) workers(jobs int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run expands the spec and executes the grid. Results stream to the sinks in
// job order regardless of worker scheduling, so output is deterministic at
// any worker count.
func (e *Engine) Run(spec Spec) (Summary, error) {
	jobs, err := Expand(spec)
	if err != nil {
		return Summary{}, err
	}
	return e.RunJobs(context.Background(), spec, jobs)
}

// RunJobs executes an already expanded grid of spec (as printed by a dry
// run) with cancellation: when ctx is done, no further jobs are started,
// in-flight simulations finish (the simulator itself has no preemption
// points) and their outcomes still land in the cache, and the run returns
// ctx's error. The serving layer uses it for request timeouts and graceful
// shutdown. The first job or sink error likewise stops new jobs and is
// returned; no row at or after a failed job's position is emitted.
// RunJobs returns only once its workers have: no goroutine outlives it.
// It holds one result slot (~370 bytes) per job for the length of the run.
func (e *Engine) RunJobs(ctx context.Context, spec Spec, jobs []Job) (Summary, error) {
	spec = spec.Normalized()
	sum := Summary{Total: len(jobs)}
	if len(jobs) == 0 {
		return sum, nil
	}
	analyses, err := analysisTable(spec, jobs)
	if err != nil {
		return sum, err
	}

	// Workers claim job positions from claim and leave each job's outcome in
	// its own slot; done carries only the position, and holds one per job,
	// so a worker never waits on the emitter. Storing n in claim stops
	// further claims: a worker does so on its job's error, the emitter on
	// a sink error and on its way out.
	n := len(jobs)
	slots := make([]slot, n)
	done := make(chan int, n)
	var claim atomic.Int64
	var wg sync.WaitGroup
	for range e.workers(n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(claim.Add(1) - 1)
				if pos >= n {
					return
				}
				s := &slots[pos]
				if s.err = ctx.Err(); s.err == nil {
					s.res, s.err = e.runJob(jobs[pos], spec.Telemetry)
				}
				if s.err != nil {
					claim.Store(int64(n))
				}
				done <- pos
			}
		}()
	}

	// The emitter walks the slots in job order, each as soon as it and
	// every slot before it are filled, and clears a slot once its row is
	// out. The first error stops the walk.
	ready := make([]bool, n)
	for next := 0; next < n && err == nil; {
		pos := <-done
		if err = slots[pos].err; err != nil {
			break
		}
		ready[pos] = true
		for ; next < n && ready[next] && err == nil; next++ {
			res := &slots[next].res
			a := analyses[analysisKey(res.Job)]
			res.Analysis = a.value
			res.AnalysisSaturated = a.saturated
			res.Stalled = !res.Truncated && res.Delivered < res.Job.Measure
			if res.Cached {
				sum.CacheHits++
			} else {
				sum.Executed++
			}
			for _, s := range e.Sinks {
				if werr := s.Write(*res); werr != nil {
					err = fmt.Errorf("sweep: sink: %w", werr)
					break
				}
			}
			slots[next] = slot{}
		}
	}
	claim.Store(int64(n))
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return sum, err
}

// slot is one job's place in a run: the worker that ran the job writes it,
// and the emitter reads it after receiving the job's position.
type slot struct {
	res Result
	err error
}

// runJob satisfies one job from the cache or by running the simulator (or
// the engine's Exec hook).
func (e *Engine) runJob(j Job, telemetry bool) (Result, error) {
	var start time.Time
	if e.Observer != nil {
		start = time.Now()
		e.Observer.JobStarted(j)
	}
	res, err := e.runJobInner(j, telemetry)
	if e.Observer != nil {
		e.Observer.JobFinished(j, res.Cached, time.Since(start).Seconds())
	}
	return res, err
}

func (e *Engine) runJobInner(j Job, telemetry bool) (Result, error) {
	key := j.Key()
	if e.Cache != nil {
		if o, ok := e.Cache.Get(key); ok && (!telemetry || o.Telemetry != nil) {
			// A telemetry-requesting run treats a summary-less cached outcome
			// as a miss: the measurements would match, but the contention
			// digest the caller asked for does not exist and cannot be
			// reconstructed. Re-executing stores the enriched outcome, whose
			// measurements are bit-identical (telemetry is observation-only).
			return Result{Job: j, Outcome: o, Cached: true}, nil
		}
	}
	if testHookJobStart != nil {
		testHookJobStart(j)
	}
	var o Outcome
	var cached bool
	var err error
	if e.Exec != nil {
		o, cached, err = e.Exec(j)
	} else if telemetry {
		o, _, err = ExecuteTelemetry(j, nil)
	} else {
		o, err = Execute(j)
	}
	if err != nil {
		return Result{}, err
	}
	if e.Cache != nil {
		if err := e.Cache.Put(key, o); err != nil {
			return Result{}, fmt.Errorf("sweep: cache: %w", err)
		}
	}
	return Result{Job: j, Outcome: o, Cached: cached}, nil
}

// Execute runs one job's simulation to completion.
func Execute(j Job) (Outcome, error) {
	o, _, err := execute(j, nil, nil)
	return o, err
}

// ExecuteTelemetry runs one job's simulation with the contention instrument
// on: the outcome carries its summary digest, and the full report is
// returned. live, if non-nil, receives the collector before the run starts,
// so a serving layer can snapshot a simulation in flight and read its
// progress. Telemetry is observation-only: the measurements are
// bit-identical to Execute's.
func ExecuteTelemetry(j Job, live func(*mcsim.Telemetry)) (Outcome, *mcsim.TelemetryReport, error) {
	return execute(j, &mcsim.TelemetryConfig{}, live)
}

// execute runs one job's simulation, with telemetry when tele is non-nil,
// and releases the simulation once its outcome and report are taken.
func execute(j Job, tele *mcsim.TelemetryConfig, live func(*mcsim.Telemetry)) (Outcome, *mcsim.TelemetryReport, error) {
	cfg, err := j.Config()
	if err != nil {
		return Outcome{}, nil, err
	}
	cfg.Telemetry = tele
	sim, err := mcsim.New(cfg)
	if err != nil {
		return Outcome{}, nil, err
	}
	if live != nil {
		live(sim.Telemetry())
	}
	res, err := sim.Run()
	if err != nil && !res.Truncated {
		return Outcome{}, nil, err
	}
	// Truncated runs (extreme saturation) still carry partial measurements;
	// report them rather than failing the sweep.
	o := Outcome{
		SimLatency:    Float(res.Latency.Mean),
		SimSourceWait: Float(res.SourceWait.Mean),
		SimPOut:       Float(res.ObservedPOut),
		Delivered:     res.DeliveredMeasured,
		Truncated:     res.Truncated,
	}
	if res.DeliveredMeasured == 0 {
		o.SimLatency = Float(math.NaN())
	}
	var rep *mcsim.TelemetryReport
	if t := sim.Telemetry(); t != nil {
		r := t.Snapshot()
		rep = &r
		o.Telemetry = r.Summary()
	}
	// The next job reuses the run's arrays; a collector handed to live
	// stays readable.
	sim.Release()
	return o, rep, nil
}

// analysisPoint is one precomputed analytic latency.
type analysisPoint struct {
	value     Float
	saturated bool
}

// analysisKey indexes the analysis table: the model latency depends only on
// the organization, the message geometry, the link-technology point, the
// topology point and the load.
func analysisKey(j Job) [5]int {
	return [5]int{j.OrgIndex, j.MsgIndex, j.LinksIndex, j.TopoIndex, j.LoadIndex}
}

// analysisTable precomputes the analytic latency for every distinct
// (org, message, links, topology, load) combination of the grid,
// sequentially and before any simulation starts, so emission never blocks
// on model evaluation. The models, and the points already evaluated on
// them, come from the process-wide memo.
func analysisTable(spec Spec, jobs []Job) (map[[5]int]analysisPoint, error) {
	table := make(map[[5]int]analysisPoint)
	if spec.Model == "none" {
		nan := analysisPoint{value: Float(math.NaN())}
		for _, j := range jobs {
			table[analysisKey(j)] = nan
		}
		return table, nil
	}
	type mkey struct{ org, msg, links, topo int }
	models := make(map[mkey]*Model)
	for _, j := range jobs {
		k := analysisKey(j)
		if _, ok := table[k]; ok {
			continue
		}
		mk := mkey{j.OrgIndex, j.MsgIndex, j.LinksIndex, j.TopoIndex}
		m, ok := models[mk]
		if !ok {
			par, err := j.Params()
			if err != nil {
				return nil, err
			}
			m = ModelFor(spec.Model, j.Org, j.Links, j.Topo, par)
			models[mk] = m
		}
		p, err := m.point(j.Lambda)
		if err != nil {
			return nil, err
		}
		table[k] = p
	}
	return table, nil
}
