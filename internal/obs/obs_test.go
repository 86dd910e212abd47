package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNewLoggerFormatsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("invisible")
	log.Info("served", "route", "/v1/analyze", "status", 200)
	if strings.Contains(buf.String(), "invisible") {
		t.Fatalf("debug line leaked at info level: %s", buf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("json handler did not emit JSON: %v (%s)", err, buf.String())
	}
	if doc["msg"] != "served" || doc["route"] != "/v1/analyze" {
		t.Fatalf("log document %v", doc)
	}

	buf.Reset()
	log, err = NewLogger(&buf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("visible")
	if !strings.Contains(buf.String(), "visible") {
		t.Fatalf("debug line missing at debug level: %s", buf.String())
	}

	for _, bad := range []struct{ format, level string }{
		{"xml", "info"}, {"json", "loud"},
	} {
		if _, err := NewLogger(&buf, bad.format, bad.level); err == nil {
			t.Errorf("NewLogger(%q, %q) accepted", bad.format, bad.level)
		}
	}
}

func TestRequestIDGenerationAndContext(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("consecutive request ids collide: %s", a)
	}
	for _, id := range []string{a, b} {
		if !strings.HasPrefix(id, RequestIDPrefix) {
			t.Fatalf("generated id %q lacks the deterministic prefix %q", id, RequestIDPrefix)
		}
		if !ValidRequestID(id) {
			t.Fatalf("generated id %q fails its own validation", id)
		}
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestID(ctx); got != a {
		t.Fatalf("RequestID round trip: %q", got)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID of empty context: %q", got)
	}
}

func TestValidRequestID(t *testing.T) {
	cases := []struct {
		id   string
		want bool
	}{
		{"mcr-1f", true},
		{"client/trace-7", true},
		{"", false},
		{"has space", false},
		{"new\nline", false},
		{`quo"te`, false},
		{`back\slash`, false},
		{strings.Repeat("x", 129), false},
		{"héllo", false},
	}
	for _, tc := range cases {
		if got := ValidRequestID(tc.id); got != tc.want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", tc.id, got, tc.want)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count %d", s.Count)
	}
	if want := 0.5 + 1 + 5 + 50 + 500 + 5000; s.Sum != want {
		t.Fatalf("sum %v, want %v", s.Sum, want)
	}
	// Cumulative: ≤1 → 2 (0.5 and the boundary value 1), ≤10 → 3,
	// ≤100 → 4, +Inf → 6.
	want := []uint64{2, 3, 4, 6}
	for i, c := range s.Cumulative {
		if c != want[i] {
			t.Fatalf("cumulative %v, want %v", s.Cumulative, want)
		}
	}
}

// TestHistogramCountIsInfBucket: with observers running, every snapshot's
// Count is its own +Inf cumulative total, so an exposition's _count and
// _bucket{le="+Inf"} never disagree.
func TestHistogramCountIsInfBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	check := func(s HistSnapshot) {
		if inf := s.Cumulative[len(s.Cumulative)-1]; s.Count != inf {
			t.Errorf("Count %d, +Inf cumulative %d", s.Count, inf)
		}
	}
	for i := 0; i < 100; i++ {
		check(h.Snapshot())
	}
	wg.Wait()
	s := h.Snapshot()
	check(s)
	if s.Count != writers*each {
		t.Fatalf("count %d, want %d", s.Count, writers*each)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}
