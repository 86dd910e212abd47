package sweep

import (
	"sync"
	"testing"
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

// TestExecuteObservedIdentity: the probe has no effect on the outcome —
// ExecuteOpts with a progress callback returns exactly what Execute
// returns, and the probe reports monotonically non-decreasing event counts.
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

	var samples int
	var lastEvents uint64
	lastSim := -1.0
	// A small stride on a tiny job still yields several samples.
	observed, _, err := ExecuteOpts(j, ExecOptions{ProgressEvery: 512, OnProgress: func(events uint64, simTime float64) {
		samples++
		if events < lastEvents {
			t.Errorf("events went backwards: %d after %d", events, lastEvents)
		}
		if simTime < lastSim {
			t.Errorf("sim time went backwards: %g after %g", simTime, lastSim)
		}
		lastEvents, lastSim = events, simTime
	}})
	if err != nil {
		t.Fatal(err)
	}
	if observed != plain {
		t.Errorf("observed outcome %+v differs from plain %+v", observed, plain)
	}
	if samples == 0 {
		t.Error("progress probe never fired")
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
