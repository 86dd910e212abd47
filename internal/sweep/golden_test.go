package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update-golden regenerates the committed fixtures from the current
// simulator. Only do this deliberately: the fixtures exist so that simulator
// refactors can prove themselves result-identical (same seeds → byte-identical
// CSV), and regenerating them erases that evidence.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden CSV fixtures")

// goldenFigureSpec is the builtin Figure 3 (M=32) grid at reduced measurement
// scale: the same organizations, message geometries and load grid as the real
// figure, small enough for a unit test.
func goldenFigureSpec() Spec {
	spec, ok := Builtin("fig3-m32")
	if !ok {
		panic("builtin fig3-m32 missing")
	}
	spec.Warmup, spec.Measure, spec.Drain = 200, 1500, 200
	return spec
}

// goldenAxesSpec exercises every axis the simulator branches on — both
// routing modes, all three traffic patterns, two message geometries,
// replications — on a small heterogeneous organization.
func goldenAxesSpec() Spec {
	return Spec{
		Name:     "golden-axes",
		Orgs:     []string{"m=4:2x1,2x2@2"},
		Messages: []MessageGeometry{{Flits: 32, FlitBytes: 256}, {Flits: 64, FlitBytes: 512}},
		Patterns: []string{"uniform", "hotspot:0.3", "cluster-local:0.6"},
		Routing:  []string{"balanced", "random-up"},
		Loads:    Loads{Lambdas: []float64{2e-5, 2e-4}},
		Warmup:   100, Measure: 800, Drain: 100,
		Reps:     2,
		BaseSeed: 42,
	}
}

// goldenWorkloadSpec exercises the workload axes: bursty MMPP and
// phase-randomized deterministic arrivals crossed with bimodal and geometric
// message-length mixes, under both routing modes.
func goldenWorkloadSpec() Spec {
	return Spec{
		Name:     "golden-workload",
		Orgs:     []string{"m=4:2x1,2x2@2"},
		Messages: []MessageGeometry{{Flits: 32, FlitBytes: 256}},
		Routing:  []string{"balanced", "random-up"},
		Arrivals: []string{"mmpp:8:16", "deterministic"},
		Sizes:    []string{"bimodal:8:128:0.2", "geometric:32"},
		Loads:    Loads{Lambdas: []float64{2e-4}},
		Warmup:   100, Measure: 800, Drain: 100,
		Reps:     2,
		BaseSeed: 7,
	}
}

// goldenBurstySpec pins the bursty fast path: the benchmark's own workload
// (on-off MMPP at 16× peak, bimodal 8/128 lengths) on a heterogeneous
// organization, recorded before the variable-M pooling refactor so the pooled
// path must keep reproducing these exact bytes.
func goldenBurstySpec() Spec {
	return Spec{
		Name:     "golden-bursty",
		Orgs:     []string{"m=4:2x1,2x2@2", "m=4:4x1"},
		Messages: []MessageGeometry{{Flits: 32, FlitBytes: 256}},
		Arrivals: []string{"mmpp:16:32"},
		Sizes:    []string{"bimodal:8:128:0.2"},
		Loads:    Loads{Lambdas: []float64{1e-4, 3e-4}},
		Warmup:   100, Measure: 800, Drain: 100,
		Reps:     2,
		BaseSeed: 23,
	}
}

// goldenLinksSpec exercises the link-heterogeneity axis: the homogeneous
// technology against a degraded global tier and a per-cluster ECN1 override
// riding in the organization axis, with the analysis column pinned too (the
// tier-indexed model evaluates per link class).
func goldenLinksSpec() Spec {
	return Spec{
		Name: "golden-links",
		Orgs: []string{"m=4:2x1@ecn1=0.04/0.02/0.004,2x2@2"},
		Links: []string{
			"uniform",
			"icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004",
			"icn1=0.01/0.005/0.001",
		},
		Loads:  Loads{Lambdas: []float64{2e-4}},
		Warmup: 100, Measure: 800, Drain: 100,
		Reps:     2,
		BaseSeed: 19,
	}
}

// runCSV executes the spec at the given worker count and returns the CSV
// sink's bytes.
func runCSV(t *testing.T, spec Spec, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewCSVSink(&buf, spec)
	eng := &Engine{Workers: workers, Sinks: []Sink{sink}}
	if _, err := eng.Run(spec); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenDeterminism is the simulator's end-to-end regression anchor: the
// same spec must produce byte-identical CSV at any worker count, and the
// output must match the committed fixture, so any refactor of des, wormhole,
// routing or mcsim that changes results (event ordering, RNG consumption,
// floating-point evaluation order) is caught here.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps are not -short")
	}
	for _, tc := range []struct {
		file string
		spec Spec
	}{
		{"golden_fig3_m32.csv", goldenFigureSpec()},
		{"golden_axes.csv", goldenAxesSpec()},
		{"golden_workload.csv", goldenWorkloadSpec()},
		{"golden_bursty.csv", goldenBurstySpec()},
		{"golden_links.csv", goldenLinksSpec()},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			t.Parallel()
			seq := runCSV(t, tc.spec, 1)
			par := runCSV(t, tc.spec, 8)
			if !bytes.Equal(seq, par) {
				t.Fatalf("workers=1 and workers=8 CSV differ:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", seq, par)
			}
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, seq, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(seq))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(seq, want) {
				t.Fatalf("CSV diverged from %s: the simulator no longer reproduces the "+
					"committed results for identical seeds.\n--- got ---\n%s--- want ---\n%s",
					path, seq, want)
			}
		})
	}
}
