package sweep

import (
	"math"
	"reflect"
	"testing"
)

// FuzzExpand checks the structural invariants of spec expansion over
// arbitrary axis inputs: expansion either rejects the spec or yields a grid
// whose size is the axis product, whose indices are consistent coordinates,
// and which is bit-reproducible (the determinism the cache keys and derived
// seeds rest on).
func FuzzExpand(f *testing.F) {
	f.Add("m=4:2x1,2x2", "uniform", "balanced", "poisson", "fixed", 1e-4, 2e-4, uint64(1), 2, 1)
	f.Add("org1", "hotspot:0.25", "random-up", "mmpp:8:16", "bimodal:8:128:0.2", 5e-5, 0.0, uint64(42), 1, 2)
	f.Add("m=4:3x2@1.5", "cluster-local:0.9", "balanced", "deterministic", "geometric:32", 1e-3, 1e-3, uint64(0), 3, 3)
	f.Add("", "uniform", "balanced", "poisson", "fixed", 1e-4, 0.0, uint64(7), 1, 1)
	f.Add("m=4:2x1", "hotspot:1.1", "balanced", "poisson", "fixed", 1e-4, 0.0, uint64(7), 1, 1)
	f.Add("m=4:2x1", "uniform", "sideways", "poisson", "fixed", 1e-4, 0.0, uint64(7), 1, 1)
	f.Add("m=4:2x1", "uniform", "balanced", "mmpp:1:1", "fixed", 1e-4, 0.0, uint64(7), 1, 1)
	f.Add("m=4:2x1", "uniform", "balanced", "poisson", "bimodal:128:8:0.2", 1e-4, 0.0, uint64(7), 1, 1)
	f.Add("m=4:2x1", "uniform", "balanced", "poisson", "fixed", -1.0, 0.0, uint64(7), 1, 1)
	f.Add("m=4:2x1", "uniform", "balanced", "poisson", "fixed", math.NaN(), 0.0, uint64(7), 1, 1)
	f.Add("m=4:1x15", "cluster-local:0.9", "balinced", "deterministic", "geometric:32", 1e-3, 1e-3, uint64(0), 3, 3)

	f.Fuzz(func(t *testing.T, org, pattern, routing, arrival, size string, l1, l2 float64, baseSeed uint64, reps, flits int) {
		lambdas := []float64{l1}
		if l2 != 0 {
			lambdas = append(lambdas, l2)
		}
		spec := Spec{
			Name:     "fuzz",
			Orgs:     []string{org},
			Patterns: []string{pattern},
			Routing:  []string{routing},
			Arrivals: []string{arrival},
			Sizes:    []string{size},
			Loads:    Loads{Lambdas: lambdas},
			Warmup:   5, Measure: 50, Drain: 5,
			BaseSeed: baseSeed,
			// Bound reps and flits so hostile inputs cannot explode the grid.
			// (Negative reps are deliberately representable: Validate must
			// reject them rather than expand to an empty grid.)
			Reps:  reps % 4,
			Model: "none",
		}
		if flits != 0 {
			spec.Messages = []MessageGeometry{{Flits: (flits%64 + 64) % 64, FlitBytes: 256}}
		}
		jobs, err := Expand(spec)
		if err != nil {
			return // rejected spec: nothing to check
		}
		norm := spec.Normalized()
		want := len(norm.Orgs) * len(norm.Messages) * len(norm.Patterns) *
			len(norm.Routing) * len(norm.Links) * len(norm.Arrivals) *
			len(norm.Sizes) * len(lambdas) * norm.Reps
		if len(jobs) != want {
			t.Fatalf("grid size %d, want axis product %d", len(jobs), want)
		}
		for i, j := range jobs {
			if j.Index != i {
				t.Fatalf("job %d has Index %d", i, j.Index)
			}
			if j.LoadIndex < 0 || j.LoadIndex >= len(lambdas) || j.Lambda != lambdas[j.LoadIndex] {
				t.Fatalf("job %d: LoadIndex %d / Lambda %v inconsistent with %v", i, j.LoadIndex, j.Lambda, lambdas)
			}
			if j.Rep < 0 || j.Rep >= norm.Reps {
				t.Fatalf("job %d: Rep %d out of range [0,%d)", i, j.Rep, norm.Reps)
			}
			if len(j.Key()) != 64 {
				t.Fatalf("job %d: malformed key %q", i, j.Key())
			}
		}
		// Determinism: expanding the same spec again reproduces the grid
		// bit for bit (same seeds, same keys, same order).
		again, err := Expand(spec)
		if err != nil {
			t.Fatalf("second expansion failed: %v", err)
		}
		if !reflect.DeepEqual(jobs, again) {
			t.Fatal("expansion is not deterministic")
		}
	})
}

// FuzzParsePattern checks the pattern-spec parser never panics and accepts
// exactly the documented grammar.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{
		"uniform", "uniform:0.5", "hotspot:0.25", "hotspot:", "hotspot:2",
		"hotspot:-1", "cluster-local:0.9", "cluster-local:x", "gravity:1", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		factory, err := ParsePattern(spec)
		if err != nil && factory != nil {
			t.Fatalf("ParsePattern(%q) returned both a factory and error %v", spec, err)
		}
	})
}
