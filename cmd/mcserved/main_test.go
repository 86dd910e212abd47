package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	var out, errb strings.Builder
	if err := run(ctx, []string{"-nope"}, &out, &errb); !errors.Is(err, errBadFlags) {
		t.Errorf("unknown flag: err = %v, want errBadFlags", err)
	}
	if !strings.Contains(errb.String(), "-nope") {
		t.Errorf("stderr did not mention the bad flag: %q", errb.String())
	}
	errb.Reset()
	if err := run(ctx, []string{"stray"}, &out, &errb); !errors.Is(err, errBadFlags) {
		t.Errorf("stray argument: err = %v, want errBadFlags", err)
	}
	if err := run(ctx, []string{"-h"}, &out, &errb); err != nil {
		t.Errorf("-h: err = %v, want nil (usage + exit 0)", err)
	}
	if err := run(ctx, []string{"-addr", "256.0.0.1:bad"}, &out, &errb); err == nil {
		t.Error("unlistenable -addr: err = nil")
	}
}

func TestServeBootHealthzAnalyzeShutdown(t *testing.T) {
	// Boot on an ephemeral port, read the printed URL, hit the two smoke
	// endpoints, then shut down via context cancellation (the test's
	// SIGTERM) and expect a clean exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var errb strings.Builder
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, pw, &errb)
		pw.Close()
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "mcserved: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("server never printed its listen URL (stderr: %s)", errb.String())
	}
	go io.Copy(io.Discard, pr) // keep draining so later prints don't block

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = client.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"org":"org1","lambda":0.0003}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"latency"`) {
		t.Fatalf("analyze over the wire: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestShutdownCancelsStreamingSweep(t *testing.T) {
	// SIGTERM mid-sweep: request contexts derive from the signal context,
	// so the engine stops at job granularity and shutdown completes far
	// sooner than the sweep would have taken — with a clean exit.
	if testing.Short() {
		t.Skip("streaming-shutdown drive skipped in -short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var errb strings.Builder
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, pw, &errb)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "mcserved: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("server never printed its listen URL (stderr: %s)", errb.String())
	}
	go io.Copy(io.Discard, pr)

	// ~200 jobs × 550k messages: minutes uncancelled at one worker, so a
	// prompt return below can only come from cancellation.
	spec := `{"orgs":["m=4:2x1,2x2"],"loads":{"points":200},"warmup":25000,"measure":500000,"drain":25000}`
	resp, err := (&http.Client{}).Post(base+"/v1/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("no first NDJSON row: %v", err)
	}
	cancel() // the test's SIGTERM, mid-stream
	start := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after mid-sweep shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown stalled behind the streaming sweep")
	}
	// Job granularity: at most one in-flight simulation (~1s) plus drain.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("shutdown took %v, sweep cancellation is not effective", elapsed)
	}
}

// TestObservabilityFlags boots with -log-format json and -pprof and checks
// the three wired surfaces: JSON access-log lines on stderr carrying the
// request id, the Prometheus exposition endpoint, and the pprof index.
func TestObservabilityFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var errb syncBuilder
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1",
			"-log-format", "json", "-log-level", "info", "-pprof"}, pw, &errb)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "mcserved: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("server never printed its listen URL (stderr: %s)", errb.String())
	}
	go io.Copy(io.Discard, pr)

	client := &http.Client{Timeout: 10 * time.Second}
	req, _ := http.NewRequest("GET", base+"/healthz", nil)
	req.Header.Set("X-Request-ID", "obs-flag-test-1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "obs-flag-test-1" {
		t.Errorf("X-Request-ID echoed as %q, want obs-flag-test-1", got)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# TYPE mcserved_requests_total counter") {
		t.Fatalf("prometheus exposition: %d %q", resp.StatusCode, body)
	}

	resp, err = client.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("-pprof index: %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}

	// One JSON access-log line per request, carrying the caller's id.
	found := false
	for _, line := range strings.Split(errb.String(), "\n") {
		if !strings.Contains(line, `"msg":"request"`) {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("access-log line is not JSON: %v\n%s", err, line)
		}
		if doc["request_id"] == "obs-flag-test-1" && doc["route"] == "GET /healthz" {
			found = true
		}
	}
	if !found {
		t.Errorf("no JSON access-log line with the caller's request id; stderr:\n%s", errb.String())
	}
}

// TestPprofOffByDefault: without -pprof the profiling endpoints must not
// exist.
func TestPprofOffByDefault(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var errb syncBuilder
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-log-format", "off"}, pw, &errb)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "mcserved: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("server never printed its listen URL (stderr: %s)", errb.String())
	}
	go io.Copy(io.Discard, pr)

	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: %d, want 404", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v after shutdown", err)
	}
}

// syncBuilder is a strings.Builder safe for the server goroutine writing
// logs while the test reads.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
