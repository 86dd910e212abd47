package analytic

import (
	"errors"
	"math"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
)

// partialOrg is an organization whose cluster count does not exactly fill
// its ICN2 tree (5 clusters on an m=4 ICN2 of capacity 8), exercising the
// enumerated P(h) path of the model.
func partialOrg() system.Organization {
	return system.Organization{
		Name:  "partial-icn2",
		Ports: 4,
		Specs: []system.ClusterSpec{{Count: 5, Levels: 2}},
	}
}

func TestModelOnPartiallyPopulatedICN2(t *testing.T) {
	m := newModel(t, partialOrg(), units.Default(), DefaultOptions())
	if m.Sys.ICN2Exact() {
		t.Fatal("test org unexpectedly exact")
	}
	sat := m.SaturationPoint(1e-6, 1, 1e-3)
	if math.IsInf(sat, 1) {
		t.Fatal("no saturation point")
	}
	v, err := m.MeanLatency(0.3 * sat)
	if err != nil || v <= 0 {
		t.Fatalf("latency = %v, err = %v", v, err)
	}
}

func TestAllOptionCombinationsEvaluate(t *testing.T) {
	// Both model presets must produce a finite positive latency at a
	// sufficiently low load and detect saturation at an absurd one.
	org := system.Table1Org2()
	for _, opt := range []Options{DefaultOptions(), PaperLiteralOptions()} {
		m := newModel(t, org, units.Default(), opt)
		v, err := m.MeanLatency(1e-6)
		if err != nil || v <= 0 || math.IsInf(v, 0) {
			t.Errorf("opts %+v: low-load latency %v, err %v", opt, v, err)
		}
		if _, err := m.MeanLatency(1); !errors.Is(err, ErrSaturated) {
			t.Errorf("opts %+v: λ=1 not saturated (err %v)", opt, err)
		}
	}
}

func TestBottleneckNamesComponent(t *testing.T) {
	// Drive each option set to saturation and check the bottleneck label
	// mentions a known component.
	for _, opt := range []Options{DefaultOptions(), PaperLiteralOptions()} {
		m := newModel(t, system.Table1Org1(), units.Default(), opt)
		res, err := m.Evaluate(0.05)
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("λ=0.05 not saturated with %+v", opt)
		}
		known := false
		for _, frag := range []string{"source-queue", "channel-chain", "concentrator"} {
			if len(res.Bottleneck) >= len(frag) && res.Bottleneck[:len(frag)] == frag {
				known = true
			}
		}
		if !known {
			t.Errorf("unrecognized bottleneck %q", res.Bottleneck)
		}
	}
}

func TestEvaluatePerClusterSaturationFlags(t *testing.T) {
	// Just past the global saturation point at least one cluster must be
	// flagged, and every flagged cluster must carry +Inf latency.
	m := org1Model(t)
	sat := m.SaturationPoint(1e-6, 1, 1e-3)
	res, err := m.Evaluate(1.1 * sat)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("1.1·λ_sat not saturated: %v", err)
	}
	flagged := 0
	for _, cr := range res.PerCluster {
		if cr.Saturated {
			flagged++
			if !math.IsInf(cr.Latency, 1) {
				t.Errorf("saturated cluster has finite latency %v", cr.Latency)
			}
		}
	}
	if flagged == 0 {
		t.Error("no cluster flagged at a saturated operating point")
	}
}
