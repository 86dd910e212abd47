package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runToBytes executes the spec and returns the CSV and JSONL output bytes.
func runToBytes(t *testing.T, eng *Engine, spec Spec) (csv, jsonl []byte, sum Summary) {
	t.Helper()
	var cb, jb bytes.Buffer
	cs, js := NewCSVSink(&cb, spec), NewJSONLSink(&jb)
	eng.Sinks = []Sink{cs, js}
	sum, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes(), sum
}

func TestRunDeterministicOutput(t *testing.T) {
	// Same spec + seed ⇒ byte-identical CSV and JSONL, across two fresh runs
	// and across worker counts.
	csv1, jsonl1, sum := runToBytes(t, &Engine{Workers: 4}, tinySpec())
	if sum.Executed != sum.Total || sum.CacheHits != 0 {
		t.Fatalf("uncached run summary %+v", sum)
	}
	csv2, jsonl2, _ := runToBytes(t, &Engine{Workers: 4}, tinySpec())
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(jsonl1, jsonl2) {
		t.Error("two runs of the same spec produced different bytes")
	}
	csv3, jsonl3, _ := runToBytes(t, &Engine{Workers: 1}, tinySpec())
	if !bytes.Equal(csv1, csv3) || !bytes.Equal(jsonl1, jsonl3) {
		t.Error("worker count changed the output bytes")
	}
	lines := strings.Split(strings.TrimSpace(string(csv1)), "\n")
	if len(lines) != sum.Total+1 {
		t.Errorf("CSV has %d lines, want header + %d rows", len(lines), sum.Total)
	}
	if lines[0] != strings.Join(CSVHeader, ",") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestCSVOutputParses(t *testing.T) {
	// Organization specs contain commas ("m=4:2x1,2x2"), so the CSV sink
	// must quote; every row must align with the header.
	csvBytes, _, _ := runToBytes(t, &Engine{}, tinySpec())
	records, err := csv.NewReader(bytes.NewReader(csvBytes)).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not parse: %v", err)
	}
	for i, rec := range records {
		if len(rec) != len(CSVHeader) {
			t.Fatalf("row %d has %d fields, want %d: %q", i, len(rec), len(CSVHeader), rec)
		}
	}
	if got := records[1][1]; got != "m=4:2x1,2x2" {
		t.Errorf("org field = %q, want the unsplit spec", got)
	}
}

func TestResumeHitsCacheCompletely(t *testing.T) {
	cache, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	executed := int32(0)
	testHookJobStart = func(Job) { atomic.AddInt32(&executed, 1) }
	defer func() { testHookJobStart = nil }()

	csv1, jsonl1, sum1 := runToBytes(t, &Engine{Cache: cache}, tinySpec())
	if sum1.Executed != sum1.Total || sum1.CacheHits != 0 {
		t.Fatalf("first run summary %+v", sum1)
	}
	if got := atomic.LoadInt32(&executed); int(got) != sum1.Total {
		t.Fatalf("first run simulated %d jobs, want %d", got, sum1.Total)
	}
	if cache.Len() != sum1.Total {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), sum1.Total)
	}

	// The resumed run must re-execute zero jobs and reproduce the files
	// byte for byte.
	atomic.StoreInt32(&executed, 0)
	csv2, jsonl2, sum2 := runToBytes(t, &Engine{Cache: cache}, tinySpec())
	if sum2.CacheHits != sum2.Total || sum2.Executed != 0 {
		t.Fatalf("resumed run summary %+v, want 100%% cache hits", sum2)
	}
	if got := atomic.LoadInt32(&executed); got != 0 {
		t.Fatalf("resumed run simulated %d jobs, want 0", got)
	}
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(jsonl1, jsonl2) {
		t.Error("resumed run produced different bytes")
	}
}

func TestPartialCacheResumesRemainder(t *testing.T) {
	// An "interrupted" sweep — here: a cache primed with only the first
	// half of the grid — re-executes exactly the missing jobs.
	spec := tinySpec()
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMemCache()
	mem := &MemorySink{}
	if _, err := (&Engine{Cache: cache, Sinks: []Sink{mem}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	full := mem.Results
	half := newMemCache()
	for _, j := range jobs[:len(jobs)/2] {
		o, _ := cache.Get(j.Key())
		if err := half.Put(j.Key(), o); err != nil {
			t.Fatal(err)
		}
	}
	mem2 := &MemorySink{}
	sum, err := (&Engine{Cache: half, Sinks: []Sink{mem2}}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CacheHits != len(jobs)/2 || sum.Executed != len(jobs)-len(jobs)/2 {
		t.Fatalf("summary %+v, want %d hits + %d executed", sum, len(jobs)/2, len(jobs)-len(jobs)/2)
	}
	for i := range full {
		if full[i].SimLatency != mem2.Results[i].SimLatency {
			t.Errorf("result %d differs after partial resume", i)
		}
	}
}

func TestWorkersBoundRespected(t *testing.T) {
	var cur, peak int32
	testHookJobStart = func(Job) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&cur, -1)
	}
	defer func() { testHookJobStart = nil }()
	spec := tinySpec()
	spec.Reps = 3 // 12 jobs
	if _, err := (&Engine{Workers: 2, Sinks: []Sink{&MemorySink{}}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p > 2 {
		t.Errorf("observed %d concurrent jobs with Workers=2", p)
	}
}

func TestWorkersActuallyRunConcurrently(t *testing.T) {
	// Two workers must be in flight at once: the first job blocks until a
	// second job arrives (with a timeout escape that fails the test).
	rendezvous := make(chan struct{})
	var met int32
	testHookJobStart = func(Job) {
		select {
		case rendezvous <- struct{}{}:
			atomic.AddInt32(&met, 1)
		case <-rendezvous:
			atomic.AddInt32(&met, 1)
		case <-time.After(10 * time.Second):
		}
	}
	defer func() { testHookJobStart = nil }()
	spec := tinySpec() // 4 jobs
	if _, err := (&Engine{Workers: 2, Sinks: []Sink{&MemorySink{}}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&met) < 2 {
		t.Error("no two jobs ever overlapped with Workers=2")
	}
}

func TestSaturatedPointsCarryNaN(t *testing.T) {
	// Push the grid past saturation: the analysis column must mark the
	// saturated points, and the JSONL round-trips their NaN as null.
	spec := tinySpec()
	spec.Loads = Loads{Points: 3, MaxFraction: 1.4}
	mem := &MemorySink{}
	var jb bytes.Buffer
	js := NewJSONLSink(&jb)
	if _, err := (&Engine{Sinks: []Sink{mem, js}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	sawSat := false
	for _, r := range mem.Results {
		if r.AnalysisSaturated {
			sawSat = true
			if !math.IsNaN(float64(r.Analysis)) {
				t.Errorf("saturated point carries analysis %v, want NaN", r.Analysis)
			}
		}
	}
	if !sawSat {
		t.Error("no point saturated on a grid reaching 1.4×λ_sat")
	}
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"analysis":null`) {
		t.Error("JSONL does not encode saturated analysis as null")
	}
}

func TestModelPresetNone(t *testing.T) {
	spec := tinySpec()
	spec.Model = "none"
	mem := &MemorySink{}
	if _, err := (&Engine{Sinks: []Sink{mem}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	for _, r := range mem.Results {
		if !math.IsNaN(float64(r.Analysis)) {
			t.Errorf("model preset none produced analysis %v", r.Analysis)
		}
		if math.IsNaN(float64(r.SimLatency)) {
			t.Error("simulation missing under model preset none")
		}
	}
}

func TestRunInvalidSpecFails(t *testing.T) {
	spec := tinySpec()
	spec.Orgs = []string{"m=3:2x1"}
	if _, err := (&Engine{}).Run(spec); err == nil {
		t.Error("invalid spec ran without error")
	}
}

// TestWorkersIdenticalOverBenchGrid: the sweep-grid benchmark's spec gives
// byte-identical JSONL at one and at four workers. Each job's simulation
// reuses the arrays of whichever job its worker (or another) released
// before it, so this is the check that recycling changes no answer under
// concurrency; the race lane runs it too.
func TestWorkersIdenticalOverBenchGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("the 48-job grid is not -short")
	}
	spec := Spec{
		Name:       "bench-grid",
		Orgs:       []string{"org1", "org2"},
		Topologies: []string{"fattree", "jellyfish", "fattree+dragonfly"},
		Arrivals:   []string{"poisson", "mmpp:8:16"},
		Loads:      Loads{Points: 4, MaxFraction: 0.9},
		Warmup:     200, Measure: 2000, Drain: 200,
	}
	_, one, sum := runToBytes(t, &Engine{Workers: 1}, spec)
	if sum.Executed != 48 {
		t.Fatalf("executed %d jobs, want the grid's 48", sum.Executed)
	}
	_, four, _ := runToBytes(t, &Engine{Workers: 4}, spec)
	if !bytes.Equal(one, four) {
		t.Error("Workers=1 and Workers=4 wrote different JSONL over the bench grid")
	}
}

// TestStalledRow checks the stalled row field: a job whose network
// deadlocks (Org1 with a dragonfly ICN2, see mcsim.TestStalledRun) emits
// "stalled":true, from its run and again from its cache entry, which holds
// no such field; a job that delivers everything omits it.
func TestStalledRow(t *testing.T) {
	spec := Spec{
		Name:       "stall",
		Orgs:       []string{"org1"},
		Topologies: []string{"fattree+dragonfly"},
		Loads:      Loads{Lambdas: []float64{0.00035623125, 1e-4}},
		Warmup:     200, Measure: 2000, Drain: 200,
		Model: "none",
	}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs[0].SimSeed = 4343180570121319839
	cache, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var rows [2][]byte
	for pass := range rows {
		var buf bytes.Buffer
		mem, sink := &MemorySink{}, NewJSONLSink(&buf)
		eng := &Engine{Workers: 2, Cache: cache, Sinks: []Sink{mem, sink}}
		if _, err := eng.RunJobs(context.Background(), spec, jobs); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		stalled, done := mem.Results[0], mem.Results[1]
		if !stalled.Stalled || stalled.Delivered != 570 || stalled.Cached != (pass == 1) {
			t.Errorf("pass %d: stalled job reads stalled %v, %d delivered, cached %v",
				pass, stalled.Stalled, stalled.Delivered, stalled.Cached)
		}
		if done.Stalled || done.Delivered != 2000 {
			t.Errorf("pass %d: complete job reads stalled %v, %d delivered", pass, done.Stalled, done.Delivered)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if !strings.HasSuffix(lines[0], `,"stalled":true}`) || strings.Contains(lines[1], "stalled") {
			t.Errorf("pass %d rows:\n%s", pass, buf.String())
		}
		rows[pass] = buf.Bytes()
	}
	if !bytes.Equal(rows[0], rows[1]) {
		t.Errorf("warm rows differ from cold rows:\n%s\n%s", rows[1], rows[0])
	}
	if b, err := os.ReadFile(cache.path(jobs[0].Key())); err != nil || bytes.Contains(b, []byte("stalled")) {
		t.Errorf("entry %s (%v) carries the derived field", b, err)
	}
}

// funcSink is a Sink that calls its function for every row.
type funcSink func(Result) error

func (f funcSink) Write(r Result) error { return f(r) }

// TestRowsInJobOrderWhenJobsFinishLastFirst: with every job in flight at
// once and an Exec hook that lets job i return only after job i+1 has, the
// jobs finish last-first, and the rows still reach the sink in job order.
func TestRowsInJobOrderWhenJobsFinishLastFirst(t *testing.T) {
	spec := tinySpec()
	spec.Reps = 2 // 8 jobs
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := len(jobs)
	released := make([]chan struct{}, n)
	for i := range released {
		released[i] = make(chan struct{})
	}
	var mu sync.Mutex
	var finished []int
	mem := &MemorySink{}
	eng := &Engine{Workers: n, Sinks: []Sink{mem}, Exec: func(j Job) (Outcome, bool, error) {
		if j.Index+1 < n {
			<-released[j.Index+1]
		}
		mu.Lock()
		finished = append(finished, j.Index)
		mu.Unlock()
		close(released[j.Index])
		return Outcome{Delivered: j.Index}, false, nil
	}}
	if _, err := eng.RunJobs(context.Background(), spec, jobs); err != nil {
		t.Fatal(err)
	}
	for i, idx := range finished {
		if idx != n-1-i {
			t.Fatalf("jobs finished in order %v, want last-first", finished)
		}
	}
	if len(mem.Results) != n {
		t.Fatalf("%d rows, want %d", len(mem.Results), n)
	}
	for i, r := range mem.Results {
		if r.Job.Index != i || r.Delivered != i {
			t.Errorf("row %d carries job %d (outcome %d)", i, r.Job.Index, r.Delivered)
		}
	}
}

// TestRowStreamsBeforeLaterJobsFinish: a row reaches the sinks as soon as
// its turn comes, not when the run ends — job 1's Exec hook returns only
// once the sink has seen row 0.
func TestRowStreamsBeforeLaterJobsFinish(t *testing.T) {
	first := make(chan struct{})
	var once sync.Once
	sink := funcSink(func(Result) error { once.Do(func() { close(first) }); return nil })
	eng := &Engine{Workers: 2, Sinks: []Sink{sink}, Exec: func(j Job) (Outcome, bool, error) {
		if j.Index == 1 {
			select {
			case <-first:
			case <-time.After(10 * time.Second):
				return Outcome{}, false, errors.New("row 0 was not emitted while job 1 ran")
			}
		}
		return Outcome{Delivered: 1}, false, nil
	}}
	if _, err := eng.Run(tinySpec()); err != nil {
		t.Fatal(err)
	}
}

// TestJobErrorStopsRows: a failing job's error is returned, and no row at or
// after its position reaches the sinks.
func TestJobErrorStopsRows(t *testing.T) {
	spec := tinySpec()
	spec.Reps = 4 // 16 jobs
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 5
	boom := errors.New("job failed")
	for _, workers := range []int{1, 2, 4} {
		mem := &MemorySink{}
		obs := &countingObserver{}
		eng := &Engine{Workers: workers, Sinks: []Sink{mem}, Observer: obs, Exec: func(j Job) (Outcome, bool, error) {
			if j.Index == bad {
				return Outcome{}, false, boom
			}
			return Outcome{Delivered: 1}, false, nil
		}}
		if _, err := eng.RunJobs(context.Background(), spec, jobs); !errors.Is(err, boom) {
			t.Errorf("workers %d: RunJobs returned %v, want the job's error", workers, err)
		}
		for i, r := range mem.Results {
			if r.Job.Index != i || i >= bad {
				t.Errorf("workers %d: row %d carries job %d, failing job is %d", workers, i, r.Job.Index, bad)
			}
		}
		if obs.started != obs.executed+obs.cached {
			t.Errorf("workers %d: %d jobs started, %d finished", workers, obs.started, obs.executed+obs.cached)
		}
	}
}

// TestSinkErrorReturned: a failing sink stops the run with a "sweep: sink:"
// error that wraps the sink's own.
func TestSinkErrorReturned(t *testing.T) {
	full := errors.New("disk full")
	rows := 0
	sink := funcSink(func(Result) error {
		rows++
		if rows == 2 {
			return full
		}
		return nil
	})
	spec := tinySpec()
	spec.Reps = 4
	eng := &Engine{Workers: 2, Sinks: []Sink{sink}, Exec: func(Job) (Outcome, bool, error) {
		return Outcome{Delivered: 1}, false, nil
	}}
	_, err := eng.Run(spec)
	if !errors.Is(err, full) || !strings.HasPrefix(err.Error(), "sweep: sink: ") {
		t.Fatalf("Run returned %v, want a sweep: sink: error wrapping the sink's", err)
	}
	if rows != 2 {
		t.Errorf("sink saw %d rows after failing on the second", rows)
	}
}

// TestRunJobsLeavesNoGoroutines: once RunJobs returns, the goroutine count
// is back where it was before the call — after a successful run, a job
// error, a sink error and a cancelled context. A goroutine that has
// signalled its end may take a moment to exit, so the count is polled.
func TestRunJobsLeavesNoGoroutines(t *testing.T) {
	spec := tinySpec()
	spec.Reps = 4 // 16 jobs
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(Job) (Outcome, bool, error) { return Outcome{Delivered: 1}, false, nil }
	cases := []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, err := (&Engine{Workers: 4, Sinks: []Sink{&MemorySink{}}, Exec: ok}).RunJobs(context.Background(), spec, jobs)
			return err
		}},
		{"job-error", func() error {
			eng := &Engine{Workers: 4, Exec: func(j Job) (Outcome, bool, error) {
				if j.Index == 3 {
					return Outcome{}, false, errors.New("job failed")
				}
				return ok(j)
			}}
			if _, err := eng.RunJobs(context.Background(), spec, jobs); err == nil {
				return errors.New("no error from a failing job")
			}
			return nil
		}},
		{"sink-error", func() error {
			sink := funcSink(func(Result) error { return errors.New("sink failed") })
			if _, err := (&Engine{Workers: 4, Sinks: []Sink{sink}, Exec: ok}).RunJobs(context.Background(), spec, jobs); err == nil {
				return errors.New("no error from a failing sink")
			}
			return nil
		}},
		{"cancel", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			entered := make(chan struct{}, len(jobs))
			release := make(chan struct{})
			eng := &Engine{Workers: 4, Exec: func(j Job) (Outcome, bool, error) {
				entered <- struct{}{}
				<-release
				return ok(j)
			}}
			done := make(chan error, 1)
			go func() {
				_, err := eng.RunJobs(ctx, spec, jobs)
				done <- err
			}()
			<-entered
			cancel()
			close(release)
			if err := <-done; !errors.Is(err, context.Canceled) {
				return fmt.Errorf("cancelled run returned %v", err)
			}
			return nil
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after RunJobs returned, %d before", c.name, got, before)
		}
	}
}
