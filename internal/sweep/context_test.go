package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunContextCancelStopsWorkers(t *testing.T) {
	// Cancel while the first jobs are in flight: no further jobs start, the
	// run returns the context error promptly.
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	var started int32
	eng := &Engine{
		Workers: 2,
		Sinks:   []Sink{&MemorySink{}},
		Exec: func(j Job) (Outcome, bool, error) {
			atomic.AddInt32(&started, 1)
			entered <- struct{}{}
			<-release
			return Outcome{Delivered: 1}, false, nil
		},
	}
	spec := tinySpec()
	spec.Reps = 4 // 16 jobs, so cancellation strikes mid-grid
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := eng.RunJobs(ctx, spec, jobs)
		done <- err
	}()
	<-entered // at least one job is executing
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunJobs returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJobs did not return after cancel")
	}
	if n := atomic.LoadInt32(&started); int(n) >= len(jobs) {
		t.Errorf("all %d jobs started despite cancellation", n)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started int32
	eng := &Engine{Exec: func(Job) (Outcome, bool, error) {
		atomic.AddInt32(&started, 1)
		return Outcome{}, false, nil
	}}
	jobs, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunJobs(ctx, tinySpec(), jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJobs = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&started); n != 0 {
		t.Errorf("%d jobs executed under a pre-cancelled context", n)
	}
}

func TestExecHookReplacesSimulator(t *testing.T) {
	// The Exec hook supplies outcomes instead of the simulator; cached jobs
	// still bypass it.
	cache := newMemCache()
	var calls int32
	eng := &Engine{
		Cache: cache,
		Exec: func(j Job) (Outcome, bool, error) {
			atomic.AddInt32(&calls, 1)
			return Outcome{SimLatency: Float(float64(j.Index) + 1), Delivered: 42}, false, nil
		},
	}
	mem := &MemorySink{}
	eng.Sinks = []Sink{mem}
	sum, err := eng.Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if int(atomic.LoadInt32(&calls)) != sum.Total {
		t.Fatalf("Exec called %d times, want %d", calls, sum.Total)
	}
	for i, r := range mem.Results {
		if r.Delivered != 42 || float64(r.SimLatency) != float64(i)+1 {
			t.Fatalf("result %d = %+v, not the hook's outcome", i, r)
		}
	}
	// Hook outcomes were cached: a second run is all hits, zero Exec calls.
	atomic.StoreInt32(&calls, 0)
	mem2 := &MemorySink{}
	eng.Sinks = []Sink{mem2}
	sum2, err := eng.Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if sum2.CacheHits != sum2.Total || atomic.LoadInt32(&calls) != 0 {
		t.Fatalf("second run: %+v with %d Exec calls, want all cache hits", sum2, calls)
	}
}
