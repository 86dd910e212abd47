package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mcnet/internal/mcsim"
	"mcnet/internal/sweep"
)

// jobProgress is one running simulation's live view: its start time and
// its contention collector, whose latest sample is the job's progress.
type jobProgress struct {
	start time.Time
	// tele is the run's live collector, published once the simulator is
	// constructed (mcsim.Telemetry reads are safe against the running
	// event loop). GET /v1/jobs/{id} and GET /v1/jobs/{id}/telemetry read
	// it while the job runs.
	tele atomic.Pointer[mcsim.Telemetry]
}

// progressDoc is the live "progress" object on GET /v1/jobs/{id} while the
// job's simulation is executing: executed events, the event rate since the
// run started, the simulated time reached, and wall-clock elapsed.
type progressDoc struct {
	Events       uint64      `json:"events"`
	EventsPerSec sweep.Float `json:"events_per_sec"`
	SimTime      sweep.Float `json:"sim_time"`
	ElapsedSec   sweep.Float `json:"elapsed_sec"`
}

// snapshot renders the probe at `now`: the collector's latest sample, or
// zero events before the collector is published.
func (p *jobProgress) snapshot(now time.Time) *progressDoc {
	elapsed := now.Sub(p.start).Seconds()
	var events uint64
	var simTime float64
	if t := p.tele.Load(); t != nil {
		events, simTime = t.Progress()
	}
	doc := &progressDoc{
		Events:     events,
		SimTime:    sweep.Float(simTime),
		ElapsedSec: sweep.Float(elapsed),
	}
	if elapsed > 0 {
		doc.EventsPerSec = sweep.Float(float64(events) / elapsed)
	} else {
		doc.EventsPerSec = sweep.Float(math.NaN())
	}
	return doc
}

// progressTable indexes live probes by Job.Key. Keying by job identity
// (not record id) means a deduplicated job — many records, one execution —
// reports the one real run's progress to every watcher, including jobs a
// streaming sweep is executing.
type progressTable struct {
	mu sync.Mutex
	m  map[string]*jobProgress
}

// begin registers a probe for key and returns it.
func (t *progressTable) begin(key string) *jobProgress {
	p := &jobProgress{start: time.Now()}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]*jobProgress)
	}
	t.m[key] = p
	t.mu.Unlock()
	return p
}

// end removes key's probe.
func (t *progressTable) end(key string) {
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
}

// lookup returns key's live probe, or nil.
func (t *progressTable) lookup(key string) *jobProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[key]
}
