package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden analyze responses")

// goldenAnalyzeBodies are the /v1/analyze requests whose response bytes are
// pinned by testdata/analyze_golden.ndjson: a Table 1 organization below and
// past saturation (the second reuses the first's prepared model), the other
// Table 1 organization with a link-tier override and a non-default message
// geometry under the paper-literal model, and a jellyfish/dragonfly
// organization.
var goldenAnalyzeBodies = []string{
	`{"org":"org1","lambda":0.0003}`,
	`{"org":"org1","lambda":0.01}`,
	`{"org":"org2","lambda":0.00001,"flits":64,"flit_bytes":512,"links":"icn2=0.04/0.02/0.004","model":"paper-literal"}`,
	`{"org":"m=4@icn2topo=dragonfly:8x3@topo=jellyfish,3x4,5x5@topo=jellyfish","lambda":0.0002}`,
}

// TestAnalyzeGolden pins the rendered /v1/analyze documents byte for byte:
// latency, saturation flag and saturation point are the model's exact bits,
// so any change to the evaluation or search path that moves a float fails
// here. Regenerate with -update-golden.
func TestAnalyzeGolden(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	var got bytes.Buffer
	for _, body := range goldenAnalyzeBodies {
		w := do(t, s, "POST", "/v1/analyze", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body)
		}
		got.Write(w.Body.Bytes())
	}
	path := filepath.Join("testdata", "analyze_golden.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("analyze responses diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

// TestAnalyzeSearchesSaturationOnce pins that a prepared model's saturation
// point is searched once, when the model is built: every response miss on
// the model, saturated ones included, carries the point a fresh Grid search
// finds, the server holds one prepared model for them all, and later misses
// read the stored point (the test overwrites it after the first response and
// expects the overwritten value back) instead of searching again.
func TestAnalyzeSearchesSaturationOnce(t *testing.T) {
	sys, err := system.New(system.Table1Org1())
	if err != nil {
		t.Fatal(err)
	}
	m, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analytic.NewGrid(m).SaturationPoint(1e-6, 1, 1e-4)
	stored := math.Nextafter(want, 0)

	s := newTestServer(t, Config{}, instantOutcome)
	var pm *preparedModel
	for i, lambda := range []float64{1e-4, 3e-4, 5e-4, 1e-2, 2e-4} {
		w := do(t, s, "POST", "/v1/analyze", fmt.Sprintf(`{"org":"org1","lambda":%g}`, lambda))
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("λ=%g: status %d X-Cache=%q: %s", lambda, w.Code, w.Header().Get("X-Cache"), w.Body)
		}
		var resp analyzeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if n := s.models.Len(); n != 1 {
			t.Fatalf("λ=%g: %d prepared models, want 1", lambda, n)
		}
		got := math.Float64bits(float64(resp.SaturationPoint))
		if i == 0 {
			if got != math.Float64bits(want) {
				t.Fatalf("λ=%g: saturation_point %x, want %x", lambda, float64(resp.SaturationPoint), want)
			}
			pm = s.models.ll.Front().Value.(*lruEntry).val.(*preparedModel)
			pm.sat = stored
			continue
		}
		if cur := s.models.ll.Front().Value.(*lruEntry).val.(*preparedModel); cur != pm {
			t.Fatalf("λ=%g: prepared model rebuilt", lambda)
		}
		if got != math.Float64bits(stored) {
			t.Fatalf("λ=%g: saturation_point %x, want the stored %x", lambda, float64(resp.SaturationPoint), stored)
		}
	}
}
