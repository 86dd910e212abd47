package core_test

import (
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/core"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// Each re-export must stay the analytic API itself: if an alias turned into
// a distinct type or a wrapper changed signature, these assignments would
// stop compiling.
var (
	_ *analytic.Model         = (*core.Model)(nil)
	_ analytic.Options        = core.Options{}
	_ analytic.Result         = core.Result{}
	_ analytic.ClusterResult  = core.ClusterResult{}
	_ func() analytic.Options = core.DefaultOptions
	_ func() analytic.Options = core.PaperLiteralOptions
)

var _ func(*system.System, units.Params, analytic.Options) (*analytic.Model, error) = core.New

// TestCoreMatchesAnalytic checks the re-exports are the analytic values and
// that core.New gives Org1 the same Eq. 36 latency, bit for bit.
func TestCoreMatchesAnalytic(t *testing.T) {
	if core.ErrSaturated != analytic.ErrSaturated {
		t.Fatal("core.ErrSaturated is not analytic.ErrSaturated")
	}
	if core.DefaultOptions() != analytic.DefaultOptions() || core.PaperLiteralOptions() != analytic.PaperLiteralOptions() {
		t.Fatal("core's option presets differ from analytic's")
	}
	sys, err := system.New(system.Table1Org1())
	if err != nil {
		t.Fatal(err)
	}
	want, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.New(sys, units.Default(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.5 * want.SaturationPoint(1e-6, 1, 1e-3)
	w, err := want.MeanLatency(lambda)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.MeanLatency(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("Org1 mean latency at λ=%v: core %x, analytic %x", lambda, g, w)
	}
}
