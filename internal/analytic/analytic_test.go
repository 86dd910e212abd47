package analytic

import (
	"errors"
	"math"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
)

func newModel(t *testing.T, org system.Organization, par units.Params, opt Options) *Model {
	t.Helper()
	m, err := New(system.MustNew(org), par, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func org1Model(t *testing.T) *Model {
	return newModel(t, system.Table1Org1(), units.Default(), DefaultOptions())
}

func TestZeroLoadLimit(t *testing.T) {
	m := org1Model(t)
	res, err := m.Evaluate(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// At vanishing load all waits vanish: T ≈ S + R with S ≈ M·t_cs for
	// multi-hop journeys. The mean must sit between M·t_cn and
	// M·t_cs + diameter·t_cs + t_cn.
	mtcs := m.Par.MTcs()
	if res.MeanLatency < m.Par.MTcn() || res.MeanLatency > mtcs+20*m.Par.Tcs() {
		t.Errorf("zero-load latency %v outside plausible range", res.MeanLatency)
	}
	for i, cr := range res.PerCluster {
		if cr.WIntra > 1e-6 || cr.WInter > 1e-6 || cr.WConc > 1e-6 {
			t.Errorf("cluster %d: waits not ≈0 at zero load: %+v", i, cr)
		}
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	m := org1Model(t)
	sat := m.SaturationPoint(1e-5, 1, 1e-3)
	prev := 0.0
	for _, frac := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95} {
		l := frac * sat
		v, err := m.MeanLatency(l)
		if err != nil {
			t.Fatalf("λ=%v (%.0f%% of saturation): %v", l, frac*100, err)
		}
		if v <= prev {
			t.Errorf("latency %v at λ=%v not above %v", v, l, prev)
		}
		prev = v
	}
}

func TestSaturationDetection(t *testing.T) {
	m := org1Model(t)
	res, err := m.Evaluate(0.1)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("λ=0.1: err = %v, want ErrSaturated", err)
	}
	if !res.Saturated || !math.IsInf(res.MeanLatency, 1) {
		t.Errorf("saturated result: %+v", res)
	}
	if res.Bottleneck == "" {
		t.Error("saturated result names no bottleneck")
	}
}

func TestSaturationPointBracketsStability(t *testing.T) {
	m := org1Model(t)
	sat := m.SaturationPoint(1e-5, 1, 1e-3)
	if math.IsInf(sat, 1) || sat <= 0 {
		t.Fatalf("saturation point = %v", sat)
	}
	if _, err := m.Evaluate(sat * 0.95); err != nil {
		t.Errorf("0.95·λ_sat should be stable: %v", err)
	}
	if _, err := m.Evaluate(sat * 1.05); !errors.Is(err, ErrSaturated) {
		t.Errorf("1.05·λ_sat should saturate, got %v", err)
	}
	// The paper's Fig. 3 (M=32) plots to 5e-4 with divergence near the right
	// edge; the model's saturation must land in that decade.
	if sat < 1e-4 || sat > 2e-3 {
		t.Errorf("λ_sat = %v, expected within (1e-4, 2e-3) for Org1 M=32 Lm=256", sat)
	}
}

func TestPerClusterDecomposition(t *testing.T) {
	m := org1Model(t)
	res, err := m.Evaluate(2e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range res.PerCluster {
		if got := cr.WIntra + cr.SIntra + cr.RIntra; math.Abs(got-cr.TIntra) > 1e-9 {
			t.Errorf("cluster %d: TIntra = %v, components sum to %v", i, cr.TIntra, got)
		}
		if got := cr.WInter + cr.SInter + cr.RInter; math.Abs(got-cr.TInter) > 1e-9 {
			t.Errorf("cluster %d: TInter = %v, components sum to %v", i, cr.TInter, got)
		}
		want := (1-cr.POut)*cr.TIntra + cr.POut*(cr.TInter+cr.WConc)
		if math.Abs(cr.Latency-want) > 1e-9 {
			t.Errorf("cluster %d: Eq. 35 mix = %v, Latency = %v", i, want, cr.Latency)
		}
		if cr.TInter <= cr.TIntra {
			t.Errorf("cluster %d: inter latency %v not above intra %v", i, cr.TInter, cr.TIntra)
		}
	}
	// Eq. 36: the system mean is inside the per-cluster range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, cr := range res.PerCluster {
		lo = math.Min(lo, cr.Latency)
		hi = math.Max(hi, cr.Latency)
	}
	if res.MeanLatency < lo || res.MeanLatency > hi {
		t.Errorf("mean %v outside per-cluster range [%v, %v]", res.MeanLatency, lo, hi)
	}
}

func TestMessageGeometryShiftsSaturation(t *testing.T) {
	// Doubling M or L_m roughly halves the saturation point (service times
	// double), the key cross-figure shape of the paper.
	base := org1Model(t)
	m64 := newModel(t, system.Table1Org1(), units.Default().WithMessage(64, 256), DefaultOptions())
	l512 := newModel(t, system.Table1Org1(), units.Default().WithMessage(32, 512), DefaultOptions())
	satBase := base.SaturationPoint(1e-5, 1, 1e-3)
	sat64 := m64.SaturationPoint(1e-5, 1, 1e-3)
	sat512 := l512.SaturationPoint(1e-5, 1, 1e-3)
	if !(sat64 < satBase && sat512 < satBase) {
		t.Errorf("saturation points: base=%v M64=%v L512=%v; doubling geometry must saturate earlier",
			satBase, sat64, sat512)
	}
	if r := satBase / sat64; r < 1.6 || r > 2.6 {
		t.Errorf("M 32→64 shifted saturation by %vx, want ≈2x", r)
	}
	if r := satBase / sat512; r < 1.5 || r > 2.8 {
		t.Errorf("Lm 256→512 shifted saturation by %vx, want ≈2x", r)
	}
}

func TestPaperLiteralSaturatesEarlier(t *testing.T) {
	def := org1Model(t)
	lit := newModel(t, system.Table1Org1(), units.Default(), PaperLiteralOptions())
	sd := def.SaturationPoint(1e-5, 1, 1e-3)
	sl := lit.SaturationPoint(1e-5, 1, 1e-3)
	if !(sl < sd) {
		t.Errorf("paper-literal λ_sat %v not below calibrated %v", sl, sd)
	}
}

func TestRateFactorEquivalence(t *testing.T) {
	// Scaling every cluster's rate factor by α must equal scaling λ_g by α.
	org := system.Table1Org2()
	scaled := org
	scaled.Specs = append([]system.ClusterSpec{}, org.Specs...)
	for i := range scaled.Specs {
		scaled.Specs[i].RateFactor = 2
	}
	a := newModel(t, org, units.Default(), DefaultOptions())
	b := newModel(t, scaled, units.Default(), DefaultOptions())
	la, err1 := a.MeanLatency(2e-4)
	lb, err2 := b.MeanLatency(1e-4)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if math.Abs(la-lb) > 1e-9*la {
		t.Errorf("RateFactor=2 at λ (%v) != RateFactor=1 at 2λ (%v)", lb, la)
	}
}

func TestClusterSizeOrderingAtLowLoad(t *testing.T) {
	// At low load waits vanish and path length dominates: messages from a
	// small cluster ascend a shallower ECN1 (n_i=1 vs n_i=3), so the
	// small cluster's ℓ_i must be below the large cluster's. POut ordering
	// is the opposite (Eq. 13).
	m := org1Model(t)
	res, err := m.Evaluate(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var small, large ClusterResult
	for i, cr := range res.PerCluster {
		switch m.Sys.Clusters[i].Nodes {
		case 8:
			small = cr
		case 128:
			large = cr
		}
	}
	if !(small.Latency < large.Latency) {
		t.Errorf("zero-load: 8-node cluster latency %v not below 128-node cluster latency %v",
			small.Latency, large.Latency)
	}
	if !(small.POut > large.POut) {
		t.Errorf("POut: small %v should exceed large %v", small.POut, large.POut)
	}
}

func TestInvalidInputs(t *testing.T) {
	sys := system.MustNew(system.Table1Org2())
	if _, err := New(sys, units.Params{}, DefaultOptions()); err == nil {
		t.Error("invalid params accepted")
	}
	m := newModel(t, system.Table1Org2(), units.Default(), DefaultOptions())
	if _, err := m.Evaluate(-1); err == nil {
		t.Error("negative λ accepted")
	}
	if _, err := m.Evaluate(math.NaN()); err == nil {
		t.Error("NaN λ accepted")
	}
}

func TestSaturationPointUnbounded(t *testing.T) {
	// With a ludicrously small limit the search must report +Inf.
	m := org1Model(t)
	if sat := m.SaturationPoint(1e-9, 1e-8, 1e-3); !math.IsInf(sat, 1) {
		t.Errorf("SaturationPoint below limit returned %v, want +Inf", sat)
	}
}

// TestSaturationProbeAgreesWithEvaluate: the saturation search's probe,
// which returns at the first saturated cluster or pair, reports saturation
// exactly where Grid.Evaluate marks its Result saturated. It is checked on
// a λ ladder from zero load to far past saturation, for every topology of
// both Table 1 organizations under both model presets, on one grid that
// interleaves probes and full evaluations. Probes write their per-cluster
// results into the grid's scratch, so every Result the grid hands out must
// stay bit-identical to Model.Evaluate's after the probe that follows it.
// The search over the probe also lands on the same point, bit for bit, as
// the search over full evaluations.
func TestSaturationProbeAgreesWithEvaluate(t *testing.T) {
	for _, base := range []system.Organization{system.Table1Org1(), system.Table1Org2()} {
		for _, axis := range []string{"fattree", "jellyfish", "fattree+dragonfly", "jellyfish+dragonfly"} {
			for _, opt := range []Options{DefaultOptions(), PaperLiteralOptions()} {
				org := base
				if err := system.ApplyTopologyAxis(&org, axis); err != nil {
					t.Fatal(err)
				}
				m := newModel(t, org, units.Default(), opt)
				g := NewGrid(m)
				var ladder []float64
				for l := 1e-6; l < 1; l *= 1.25 {
					ladder = append(ladder, l)
				}
				sat := 0
				for _, l := range append(ladder, 0) {
					res, err := g.Evaluate(l)
					_, probeErr := g.m.evaluate(l, g, true)
					if probe := errors.Is(probeErr, ErrSaturated); probe != res.Saturated || (err == nil) != (probeErr == nil) {
						t.Fatalf("%s %s literal=%v λ=%v: probe saturated %v (%v), evaluation %v (%v)",
							org.Name, axis, opt.PaperLiteral, l, probe, probeErr, res.Saturated, err)
					}
					if want, _ := m.Evaluate(l); !sameResultBits(res, want) {
						t.Fatalf("%s %s literal=%v λ=%v: grid Result after a probe differs from Model.Evaluate's", org.Name, axis, opt.PaperLiteral, l)
					}
					if res.Saturated {
						sat++
					}
				}
				if sat == 0 || sat == len(ladder) {
					t.Fatalf("%s %s: %d of %d ladder points saturated, want both kinds", org.Name, axis, sat, len(ladder))
				}
				full := saturationPoint(func(l float64) bool {
					_, err := g.Evaluate(l)
					return errors.Is(err, ErrSaturated)
				}, 1e-6, 1, 1e-4)
				if got := g.SaturationPoint(1e-6, 1, 1e-4); math.Float64bits(got) != math.Float64bits(full) {
					t.Fatalf("%s %s literal=%v: probe search %v, full search %v", org.Name, axis, opt.PaperLiteral, got, full)
				}
			}
		}
	}
}

// sameResultBits reports whether two Results agree in every field, floats
// compared as bit patterns.
func sameResultBits(a, b Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.LambdaG, b.LambdaG) || !eq(a.MeanLatency, b.MeanLatency) || a.Saturated != b.Saturated ||
		a.Bottleneck != b.Bottleneck || len(a.PerCluster) != len(b.PerCluster) {
		return false
	}
	for i, x := range a.PerCluster {
		y := b.PerCluster[i]
		if !eq(x.POut, y.POut) || !eq(x.WIntra, y.WIntra) || !eq(x.SIntra, y.SIntra) || !eq(x.RIntra, y.RIntra) ||
			!eq(x.TIntra, y.TIntra) || !eq(x.WInter, y.WInter) || !eq(x.SInter, y.SInter) || !eq(x.RInter, y.RInter) ||
			!eq(x.TInter, y.TInter) || !eq(x.WConc, y.WConc) || !eq(x.Latency, y.Latency) || x.Saturated != y.Saturated {
			return false
		}
	}
	return true
}
