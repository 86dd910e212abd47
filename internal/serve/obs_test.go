package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mcnet/internal/mcsim"
	"mcnet/internal/obs"
	"mcnet/internal/sweep"
)

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)

	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("X-Request-ID", "caller-supplied-7")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Errorf("valid caller id echoed as %q", got)
	}

	// No id supplied: the server mints one with the deterministic prefix.
	w = do(t, s, "GET", "/healthz", "")
	if got := w.Header().Get("X-Request-ID"); !strings.HasPrefix(got, obs.RequestIDPrefix) {
		t.Errorf("generated id = %q, want prefix %q", got, obs.RequestIDPrefix)
	}

	// A malformed id (header injection material) is replaced, not echoed.
	r = httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("X-Request-ID", `bad "id" with spaces`)
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, r)
	if got := w2.Header().Get("X-Request-ID"); !strings.HasPrefix(got, obs.RequestIDPrefix) {
		t.Errorf("malformed caller id came back as %q, want a generated one", got)
	}
}

// sampleValue returns the value of one series of a scrape: the sample name
// and its label block exactly as the exposition writes them, e.g.
// `mcserved_jobs{status="done"}`.
func sampleValue(t *testing.T, doc []byte, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(doc), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not in the scrape:\n%s", series, doc)
	return 0
}

// TestMetricsContentNegotiation: GET /metrics is the text exposition
// whatever the client accepts, and the exposition has no second URL.
func TestMetricsContentNegotiation(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	do(t, s, "GET", "/healthz", "")

	var docs []string
	for _, accept := range []string{"", "application/json", "text/plain;version=0.0.4"} {
		r := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("Accept %q: %d %s", accept, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("Accept %q: Content-Type = %q, want the text exposition's", accept, ct)
		}
		if err := obs.LintExposition(w.Body.Bytes()); err != nil {
			t.Errorf("Accept %q: exposition does not lint: %v", accept, err)
		}
		// Each scrape is one more GET /metrics; drop that route's series so
		// the documents compare.
		var kept []string
		for _, line := range strings.Split(w.Body.String(), "\n") {
			if !strings.Contains(line, `route="GET /metrics"`) {
				kept = append(kept, line)
			}
		}
		docs = append(docs, strings.Join(kept, "\n"))
	}
	for i := 1; i < len(docs); i++ {
		if docs[i] != docs[0] {
			t.Errorf("scrape %d differs from the first beyond the /metrics route:\n%s\n---\n%s", i, docs[0], docs[i])
		}
	}
	if w := do(t, s, "GET", "/metrics/prometheus", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET /metrics/prometheus: %d, want 404", w.Code)
	}
}

// TestPrometheusExpositionLintCleanUnderTraffic drives every route at least
// once, then holds the scrape to the lint contract and checks the family
// inventory.
func TestPrometheusExpositionLintCleanUnderTraffic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, instantOutcome)
	do(t, s, "GET", "/healthz", "")
	do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`)
	do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`) // cache hit
	do(t, s, "POST", "/v1/analyze", `{"bad json`)                     // error counter
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ref.ID)
	do(t, s, "POST", "/v1/sweep", `{"orgs":["org1"],"loads":{"points":2},"measure":100}`)

	scrape := do(t, s, "GET", "/metrics", "")
	if scrape.Code != http.StatusOK {
		t.Fatalf("scrape: %d %s", scrape.Code, scrape.Body)
	}
	doc := scrape.Body.Bytes()
	if err := obs.LintExposition(doc); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, doc)
	}
	for _, family := range []string{
		"mcserved_requests_total",
		"mcserved_request_errors_total",
		"mcserved_request_duration_seconds",
		"mcserved_outcome_cache_lookups_total",
		"mcserved_analyze_cache_lookups_total",
		"mcserved_jobs",
		"mcserved_queue_depth",
		"mcserved_queue_capacity",
		"mcserved_queue_workers",
		"mcserved_queue_workers_busy",
		"mcserved_simulations_executed_total",
		"mcserved_engine_jobs_started_total",
		"mcserved_engine_jobs_finished_total",
		"mcserved_engine_workers_busy",
		"mcserved_engine_job_duration_seconds",
		"mcserved_sweeps_active",
		"mcserved_sweeps_total",
	} {
		if !strings.Contains(string(doc), "# TYPE "+family+" ") {
			t.Errorf("family %s missing from the exposition", family)
		}
	}
	// Spot-check values the traffic above determined.
	if !strings.Contains(string(doc), `mcserved_analyze_cache_lookups_total{result="hit"} 1`) {
		t.Errorf("analyze cache hit not counted:\n%s", doc)
	}
	if !strings.Contains(string(doc), `mcserved_request_errors_total{route="POST /v1/analyze"} 1`) {
		t.Errorf("analyze error not counted:\n%s", doc)
	}
	if !strings.Contains(string(doc), `mcserved_sweeps_total 1`) {
		t.Errorf("sweep not counted:\n%s", doc)
	}
}

// TestMetricsScrapeRaceHammer runs two concurrent scrapers against analyze
// and simulate traffic. Run under -race (CI does), it proves the sharded
// metrics path and the exposition renderer are data-race free; every scrape
// must also lint.
func TestMetricsScrapeRaceHammer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, instantOutcome)
	const loops = 50
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(4)
	for range 2 {
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				w := do(t, s, "GET", "/metrics", "")
				if err := obs.LintExposition(w.Body.Bytes()); err != nil {
					errc <- fmt.Errorf("scrape %d does not lint: %v", i, err)
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			do(t, s, "POST", "/v1/analyze", fmt.Sprintf(`{"org":"org1","lambda":%g}`, 1e-5+float64(i)*1e-7))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			do(t, s, "POST", "/v1/simulate", fmt.Sprintf(`{"org":"org1","lambda":%g,"measure":100}`, 1e-5+float64(i)*1e-7))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestJobTimestampsAndWallTime(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1}, func(j sweep.Job) (sweep.Outcome, error) {
		<-release
		return instantOutcome(j)
	})
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	// While queued or running: created set, finished absent.
	var doc map[string]any
	if err := json.Unmarshal(do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["created"] == nil {
		t.Error("live job has no created timestamp")
	}
	if doc["finished"] != nil {
		t.Errorf("unfinished job reports finished = %v", doc["finished"])
	}
	close(release)
	final := waitDone(t, s, ref.ID)
	for _, key := range []string{"created", "started", "finished"} {
		v, ok := final[key].(string)
		if !ok {
			t.Fatalf("finished job missing %s: %v", key, final[key])
		}
		if _, err := time.Parse(time.RFC3339Nano, v); err != nil {
			t.Errorf("%s = %q is not RFC 3339: %v", key, v, err)
		}
	}
	if _, ok := final["wall_time_sec"].(float64); !ok {
		t.Errorf("finished job missing wall_time_sec: %v", final["wall_time_sec"])
	}
	if final["progress"] != nil {
		t.Errorf("finished job still carries progress: %v", final["progress"])
	}

	// The finished document is frozen: repeated reads stay byte-identical.
	a := do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.String()
	b := do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.String()
	if a != b {
		t.Errorf("finished job doc changed between reads:\n%s\n%s", a, b)
	}
}

// TestRunningJobReportsProgress holds a job mid-execution with a live probe
// registered under its key, the shape the real execution path (outcome →
// sweep.ExecuteTelemetry) produces, and checks the running document reads its
// progress from the probe's collector: zero before the collector is
// published, then the collector's latest sample.
func TestRunningJobReportsProgress(t *testing.T) {
	started := make(chan sweep.Job, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1}, func(j sweep.Job) (sweep.Outcome, error) {
		started <- j
		<-release
		return instantOutcome(j)
	})
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"warmup":50,"measure":400,"drain":50}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	j := <-started
	p := s.progress.begin(j.Key())
	progress := func() map[string]any {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc["status"] != "running" {
			t.Fatalf("job status = %v, want running", doc["status"])
		}
		if _, ok := doc["wall_time_sec"]; !ok {
			t.Error("running job missing wall_time_sec")
		}
		prog, ok := doc["progress"].(map[string]any)
		if !ok {
			t.Fatalf("running job has no progress object: %v", doc)
		}
		for _, k := range []string{"events", "events_per_sec", "sim_time", "elapsed_sec"} {
			if _, ok := prog[k]; !ok {
				t.Errorf("progress missing %s", k)
			}
		}
		return prog
	}

	if prog := progress(); prog["events"] != 0.0 || prog["sim_time"] != 0.0 {
		t.Errorf("progress before the collector is published = %v, want zero events and sim_time", prog)
	}
	if _, _, err := sweep.ExecuteTelemetry(j, func(tele *mcsim.Telemetry) { p.tele.Store(tele) }); err != nil {
		t.Fatal(err)
	}
	events, simTime := p.tele.Load().Progress()
	if events == 0 {
		t.Fatal("the finished run's collector reports no events")
	}
	prog := progress()
	if prog["events"] != float64(events) || prog["sim_time"] != simTime {
		t.Errorf("progress events %v, sim_time %v; collector's latest sample (%d, %v)",
			prog["events"], prog["sim_time"], events, simTime)
	}

	s.progress.end(j.Key())
	close(release)
	waitDone(t, s, ref.ID)
}

// mutexWriter collects log output from the server's worker goroutines.
type mutexWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *mutexWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *mutexWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestJobLifecycleLogLines(t *testing.T) {
	var buf mutexWriter
	logger, err := obs.NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Logger: logger}, instantOutcome)
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ref.ID)

	want := map[string]bool{"job queued": false, "job started": false, "job done": false, "request": false}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		msg, _ := doc["msg"].(string)
		if _, tracked := want[msg]; !tracked {
			continue
		}
		switch msg {
		case "job queued":
			if doc["job_id"] != ref.ID {
				continue
			}
			// The queued line carries the submitting request's correlation id.
			if id, _ := doc["request_id"].(string); !strings.HasPrefix(id, obs.RequestIDPrefix) {
				t.Errorf("job queued line request_id = %v", doc["request_id"])
			}
		case "job started":
			if doc["job_id"] != ref.ID {
				continue
			}
		case "job done":
			if doc["job_id"] != ref.ID {
				continue
			}
			if _, ok := doc["wall_ms"].(float64); !ok {
				t.Errorf("job done line missing wall_ms: %s", line)
			}
			if doc["cache"] != "hit" && doc["cache"] != "miss" {
				t.Errorf("job done line cache = %v", doc["cache"])
			}
		}
		want[msg] = true
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("no %q log line; log:\n%s", msg, buf.String())
		}
	}
}

// TestMetricsLatencyFromHistogram records known durations on one route and
// checks the route's request counter, error counter and latency histogram
// in the exposition.
func TestMetricsLatencyFromHistogram(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	const route = "POST /v1/analyze"
	// Buckets (seconds): 5×20µs in (10µs, 25µs], 4×300µs in (250µs, 500µs],
	// 1×3ms in (1ms, 5ms].
	for i := 0; i < 5; i++ {
		s.metrics.record(route, 200, 20*time.Microsecond)
	}
	for i := 0; i < 4; i++ {
		s.metrics.record(route, 200, 300*time.Microsecond)
	}
	s.metrics.record(route, 500, 3*time.Millisecond)

	doc := do(t, s, "GET", "/metrics", "").Body.Bytes()
	const lbl = `{route="` + route + `"`
	for _, tc := range []struct {
		series string
		want   float64
	}{
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="1e-05"}`, 0},
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="2.5e-05"}`, 5},
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="0.00025"}`, 5},
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="0.0005"}`, 9},
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="0.001"}`, 9},
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="0.005"}`, 10},
		{"mcserved_request_duration_seconds_bucket" + lbl + `,le="+Inf"}`, 10},
		{"mcserved_request_duration_seconds_count" + lbl + "}", 10},
		{"mcserved_requests_total" + lbl + "}", 10},
		{"mcserved_request_errors_total" + lbl + "}", 1},
	} {
		if got := sampleValue(t, doc, tc.series); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.series, got, tc.want)
		}
	}
	if got := sampleValue(t, doc, "mcserved_request_duration_seconds_sum"+lbl+"}"); math.Abs(got-4.3e-3) > 1e-12 {
		t.Errorf("latency sum = %v s, want 4.3e-3", got)
	}
}

// BenchmarkMetricsRecordParallel is the proof that metrics.record does not
// serialize routes: parallel recorders on distinct routes must scale, since
// record takes no lock and touches only its own route's atomics.
func BenchmarkMetricsRecordParallel(b *testing.B) {
	routes := []string{"GET /a", "GET /b", "GET /c", "GET /d"}
	m := newMetrics(routes)
	b.RunParallel(func(pb *testing.PB) {
		var n int
		for pb.Next() {
			m.record(routes[n%len(routes)], 200, 125*time.Microsecond)
			n++
		}
	})
}

// BenchmarkMetricsRecordParallelSameRoute is the worst case: every recorder
// on one route (the analyze fast path under load).
func BenchmarkMetricsRecordParallelSameRoute(b *testing.B) {
	m := newMetrics([]string{"POST /v1/analyze"})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.record("POST /v1/analyze", 200, 125*time.Microsecond)
		}
	})
}
