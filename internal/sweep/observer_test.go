package sweep

import (
	"errors"
	"sync"
	"testing"

	"mcnet/internal/mcsim"
)

// countingObserver records engine lifecycle events (called concurrently).
type countingObserver struct {
	mu       sync.Mutex
	started  int
	executed int
	cached   int
	badTimes int
}

func (o *countingObserver) JobStarted(j Job) {
	o.mu.Lock()
	o.started++
	o.mu.Unlock()
}

func (o *countingObserver) JobFinished(j Job, cached bool, seconds float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if cached {
		o.cached++
	} else {
		o.executed++
	}
	if seconds < 0 {
		o.badTimes++
	}
}

// TestObserverSeesEveryJob: a cold run reports every job as executed, a
// warm (fully cached) rerun reports every job as a cache hit, and
// started == finished both times.
func TestObserverSeesEveryJob(t *testing.T) {
	cache := newMapCache()
	spec := tinySpec()

	cold := &countingObserver{}
	sum, err := (&Engine{Workers: 2, Cache: cache, Observer: cold}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.started != sum.Total || cold.executed != sum.Total || cold.cached != 0 {
		t.Errorf("cold run observer: started %d, executed %d, cached %d; want %d/%d/0",
			cold.started, cold.executed, cold.cached, sum.Total, sum.Total)
	}

	warm := &countingObserver{}
	if _, err := (&Engine{Workers: 2, Cache: cache, Observer: warm}).Run(spec); err != nil {
		t.Fatal(err)
	}
	if warm.started != sum.Total || warm.cached != sum.Total || warm.executed != 0 {
		t.Errorf("warm run observer: started %d, executed %d, cached %d; want %d/0/%d",
			warm.started, warm.executed, warm.cached, sum.Total, sum.Total)
	}
	if cold.badTimes+warm.badTimes != 0 {
		t.Error("observer saw negative wall times")
	}
}

// TestObserverFinishesEveryStartedJob: every JobStarted gets one
// JobFinished, also when the job fails, and an Exec hook that reports an
// outcome it did not execute makes the job a cache hit in the result, the
// summary and the observer.
func TestObserverFinishesEveryStartedJob(t *testing.T) {
	failing := &countingObserver{}
	eng := &Engine{Workers: 2, Observer: failing, Exec: func(Job) (Outcome, bool, error) {
		return Outcome{}, false, errors.New("exec failed")
	}}
	if _, err := eng.Run(tinySpec()); err == nil {
		t.Fatal("a sweep whose every job fails returned no error")
	}
	if failing.started == 0 || failing.executed+failing.cached != failing.started {
		t.Errorf("failing Exec: started %d, finished %d", failing.started, failing.executed+failing.cached)
	}

	shared := &countingObserver{}
	mem := &MemorySink{}
	eng = &Engine{Workers: 2, Observer: shared, Sinks: []Sink{mem}, Exec: func(j Job) (Outcome, bool, error) {
		return Outcome{Delivered: 1}, true, nil
	}}
	sum, err := eng.Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if sum.CacheHits != sum.Total || sum.Executed != 0 || shared.cached != sum.Total || shared.executed != 0 {
		t.Errorf("shared Exec: summary %+v, observer executed %d cached %d", sum, shared.executed, shared.cached)
	}
	for i, r := range mem.Results {
		if !r.Cached {
			t.Errorf("result %d not marked cached", i)
		}
	}
}

// TestExecuteObservedIdentity: telemetry is pure observation —
// ExecuteTelemetry returns Execute's outcome plus the digest, and the live
// collector it hands out ends at the run's last sample.
func TestExecuteObservedIdentity(t *testing.T) {
	jobs, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	plain, err := Execute(j)
	if err != nil {
		t.Fatal(err)
	}

	var tele *mcsim.Telemetry
	observed, rep, err := ExecuteTelemetry(j, func(t *mcsim.Telemetry) { tele = t })
	if err != nil {
		t.Fatal(err)
	}
	if observed.Telemetry == nil || tele == nil {
		t.Fatal("telemetry on, but no digest or no live collector")
	}
	observed.Telemetry = nil
	if observed != plain {
		t.Errorf("observed outcome %+v differs from plain %+v", observed, plain)
	}
	if ev, now := tele.Progress(); ev != rep.Events || now != rep.Time || ev == 0 {
		t.Errorf("collector progress (%d, %v), report clock (%d, %v)", ev, now, rep.Events, rep.Time)
	}
}

// mapCache is an in-memory Cache for tests. The engine calls Get/Put from
// concurrent workers, so even the test double needs the lock.
type mapCache struct {
	mu sync.Mutex
	m  map[string]Outcome
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]Outcome)} }

func (c *mapCache) Get(key string) (Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.m[key]
	return o, ok
}

func (c *mapCache) Put(key string, o Outcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = o
	return nil
}
