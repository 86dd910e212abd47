package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
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

func TestHistSnapshotQuantile(t *testing.T) {
	if q := NewHistogram([]float64{1, 10}).Snapshot().Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram quantile = %v, want NaN", q)
	}

	// One occupied bucket (1, 10]: ranks interpolate linearly across it.
	h := NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 4; i++ {
		h.Observe(5)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {1, 10}} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("one bucket: Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// A rank in the +Inf bucket reports the largest finite bound.
	h = NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(50)
	h.Observe(500)
	if got := h.Snapshot().Quantile(0.9); got != 10 {
		t.Errorf("+Inf bucket: Quantile(0.9) = %v, want 10", got)
	}

	// Monotone in q over a spread of observations, first bucket anchored
	// at 0.
	h = NewHistogram([]float64{1, 2, 4, 8, 16})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 3, 3.5, 7, 12, 20} {
		h.Observe(v)
	}
	s = h.Snapshot()
	if got := s.Quantile(0.5 / 9); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Quantile(0.5/9) = %v, want 0.5 (half way through [0, 1])", got)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1; q += 0.01 {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v below Quantile at smaller q (%v)", q, got, prev)
		}
		prev = got
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
