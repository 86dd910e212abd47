package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/mcsim"
	"mcnet/internal/repro"
	"mcnet/internal/sweep"
)

// submitSimulate posts one simulate job and returns its id.
func submitSimulate(t *testing.T, s *Server, body string) string {
	t.Helper()
	w := do(t, s, "POST", "/v1/simulate", body)
	if w.Code != http.StatusAccepted && w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	return ref.ID
}

// TestJobTelemetryLifecycle runs a real (tiny) simulation through the job
// queue and reads its contention report back: a finished job serves the
// frozen end-of-run report with the full four-tier breakdown.
func TestJobTelemetryLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, nil) // real simulator
	id := submitSimulate(t, s, `{"org":"org1","lambda":0.0003,"warmup":50,"measure":400,"drain":50}`)
	waitDone(t, s, id)

	w := do(t, s, "GET", "/v1/jobs/"+id+"/telemetry", "")
	if w.Code != http.StatusOK {
		t.Fatalf("telemetry after done: %d %s", w.Code, w.Body)
	}
	var doc jobTelemetryDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != id || doc.Status != "done" || doc.Live {
		t.Errorf("doc header = %q/%q live=%v, want id/done/frozen", doc.ID, doc.Status, doc.Live)
	}
	if len(doc.Report.Tiers) != 4 {
		t.Fatalf("report has %d tiers, want 4", len(doc.Report.Tiers))
	}
	if doc.Report.Decomposition.Messages == 0 {
		t.Error("frozen report measured no messages")
	}

	// Malformed and unknown ids keep the plain-job error contract.
	if w := do(t, s, "GET", "/v1/jobs/not%20hex/telemetry", ""); w.Code != http.StatusBadRequest {
		t.Errorf("malformed id: %d %s", w.Code, w.Body)
	}
	if w := do(t, s, "GET", "/v1/jobs/"+strings.Repeat("ab", 32)+"/telemetry", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown id: %d %s", w.Code, w.Body)
	}

	// The executed run also feeds the per-tier Prometheus counters.
	scrape := do(t, s, "GET", "/metrics", "")
	if !strings.Contains(scrape.Body.String(), "mcserved_simulations_executed_total 1") {
		t.Errorf("executed simulation not counted in exposition:\n%s", scrape.Body)
	}
	if !strings.Contains(scrape.Body.String(), `mcserved_sim_tier_grants_total{tier="icn1"}`) {
		t.Errorf("per-tier grant counters missing from exposition:\n%s", scrape.Body)
	}
}

// TestJobTelemetryCacheHit404 covers the documented gap: a job whose outcome
// came from the cache (here: the test execution hook, which bypasses the
// simulator exactly like a cache hit bypasses it) has no report and must say
// why.
func TestJobTelemetryCacheHit404(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, instantOutcome)
	id := submitSimulate(t, s, `{"org":"org1","lambda":0.0003,"measure":100}`)
	waitDone(t, s, id)
	w := do(t, s, "GET", "/v1/jobs/"+id+"/telemetry", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("telemetry for hook-served job: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "cache") {
		t.Errorf("404 body does not explain the cache gap: %s", w.Body)
	}
}

// TestFidelityEndpoint walks GET /v1/fidelity through its three states: no
// run tree, runs without reports, and a tree where the newest reported run
// wins.
func TestFidelityEndpoint(t *testing.T) {
	root := filepath.Join(t.TempDir(), "paper_runs")
	s := newTestServer(t, Config{PaperRuns: root}, instantOutcome)

	w := do(t, s, "GET", "/v1/fidelity", "")
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "mcrepro") {
		t.Fatalf("missing tree: %d %s", w.Code, w.Body)
	}

	// A run directory that never reached analysis is skipped.
	if err := os.MkdirAll(filepath.Join(root, "20260101-000000"), 0o755); err != nil {
		t.Fatal(err)
	}
	w = do(t, s, "GET", "/v1/fidelity", "")
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "analysis report") {
		t.Fatalf("reportless tree: %d %s", w.Code, w.Body)
	}

	// Two reported runs: the newest stamp must win, with its STATUS marker.
	for i, verdict := range []string{"fail", "pass"} {
		dir := filepath.Join(root, fmt.Sprintf("2026010%d-120000", 2+i))
		if err := os.MkdirAll(filepath.Join(dir, "analysis"), 0o755); err != nil {
			t.Fatal(err)
		}
		rep := fmt.Sprintf(`{"verdict":%q}`, verdict)
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(repro.ReportFile)), []byte(rep), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, repro.StatusFile), []byte("PASS\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w = do(t, s, "GET", "/v1/fidelity", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reported tree: %d %s", w.Code, w.Body)
	}
	var doc fidelityDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(doc.Run, "20260103-120000") {
		t.Errorf("served run %q, want the newest stamp", doc.Run)
	}
	if doc.Status != "PASS" {
		t.Errorf("status = %q, want the STATUS marker", doc.Status)
	}
	if !strings.Contains(string(doc.Report), `"pass"`) {
		t.Errorf("report = %s, want the newest run's verdict", doc.Report)
	}
}

// TestJobTelemetryScrapeRaceHammer scrapes the telemetry endpoint (and the
// Prometheus exposition) concurrently with a real running simulation. Run
// under -race (CI does); every 200 must carry a structurally complete
// report whether it caught the job live or finished.
func TestJobTelemetryScrapeRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	s := newTestServer(t, Config{Workers: 2}, nil) // real simulator
	id := submitSimulate(t, s, `{"org":"org1","lambda":0.0004,"warmup":1000,"measure":30000,"drain":1000}`)

	const scrapers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, scrapers)
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := do(t, s, "GET", "/v1/jobs/"+id+"/telemetry", "")
				switch w.Code {
				case http.StatusOK:
					var doc jobTelemetryDoc
					if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
						errc <- fmt.Errorf("scrape: %v", err)
						return
					}
					if len(doc.Report.Tiers) != 4 {
						errc <- fmt.Errorf("scrape lost tiers: %d", len(doc.Report.Tiers))
						return
					}
				case http.StatusNotFound:
					// Queued: the collector hasn't been published yet.
				default:
					errc <- fmt.Errorf("scrape: %d %s", w.Code, w.Body)
					return
				}
				do(t, s, "GET", "/metrics", "")
			}
		}()
	}
	waitDone(t, s, id)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After completion the frozen report must still be there.
	w := do(t, s, "GET", "/v1/jobs/"+id+"/telemetry", "")
	if w.Code != http.StatusOK {
		t.Fatalf("telemetry after done: %d %s", w.Code, w.Body)
	}
}

// TestCollectorOutlivesRelease: ExecuteTelemetry releases a job's simulation
// before it returns, and the next job reuses its arrays, but the live
// collector the server published from it must keep answering
// Snapshot with the finished run's report — a telemetry scrape can land
// between the run's end and the probe's removal.
func TestCollectorOutlivesRelease(t *testing.T) {
	jobs, err := sweep.Expand(sweep.Spec{
		Name:   "release",
		Orgs:   []string{"org1"},
		Loads:  sweep.Loads{Lambdas: []float64{2e-4, 3e-4}},
		Warmup: 50, Measure: 400, Drain: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(j sweep.Job) (*mcsim.Telemetry, *mcsim.TelemetryReport) {
		var live *mcsim.Telemetry
		_, rep, err := sweep.ExecuteTelemetry(j, func(t *mcsim.Telemetry) { live = t })
		if err != nil {
			t.Fatal(err)
		}
		return live, rep
	}
	first, rep := run(jobs[0])
	run(jobs[1]) // reuses the first run's released arrays
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(first.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("collector snapshot after release differs from the job's report:\ngot  %s\nwant %s", got, want)
	}
}
