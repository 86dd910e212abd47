package analytic_test

import (
	"errors"
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// The equivalence suite pins the Grid's contract: batched evaluation is
// bit-identical to point-wise Model.Evaluate — every float of every Result,
// the saturation flags, the Bottleneck strings and the returned errors —
// across organizations, tier overrides, model presets and load grids. The
// grid's memoization must be invisible.

// bitsEqual compares floats as bit patterns, so NaN==NaN and +0 != -0: the
// grid must reproduce the exact bytes, not merely a numerically close value.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameResult fails the test unless the two Results are bit-identical.
func requireSameResult(t *testing.T, want, got analytic.Result) {
	t.Helper()
	if !bitsEqual(want.LambdaG, got.LambdaG) || !bitsEqual(want.MeanLatency, got.MeanLatency) {
		t.Fatalf("λ=%v: mean latency diverged: pointwise %x grid %x",
			want.LambdaG, want.MeanLatency, got.MeanLatency)
	}
	if want.Saturated != got.Saturated || want.Bottleneck != got.Bottleneck {
		t.Fatalf("λ=%v: saturation diverged: pointwise (%v, %q) grid (%v, %q)",
			want.LambdaG, want.Saturated, want.Bottleneck, got.Saturated, got.Bottleneck)
	}
	if len(want.PerCluster) != len(got.PerCluster) {
		t.Fatalf("λ=%v: per-cluster length %d vs %d", want.LambdaG, len(want.PerCluster), len(got.PerCluster))
	}
	for i := range want.PerCluster {
		w, g := want.PerCluster[i], got.PerCluster[i]
		fields := [][2]float64{
			{w.POut, g.POut},
			{w.WIntra, g.WIntra}, {w.SIntra, g.SIntra}, {w.RIntra, g.RIntra}, {w.TIntra, g.TIntra},
			{w.WInter, g.WInter}, {w.SInter, g.SInter}, {w.RInter, g.RInter}, {w.TInter, g.TInter},
			{w.WConc, g.WConc}, {w.Latency, g.Latency},
		}
		for fi, p := range fields {
			if !bitsEqual(p[0], p[1]) {
				t.Fatalf("λ=%v cluster %d field %d: pointwise %x grid %x",
					want.LambdaG, i, fi, p[0], p[1])
			}
		}
		if w.Saturated != g.Saturated {
			t.Fatalf("λ=%v cluster %d: saturated %v vs %v", want.LambdaG, i, w.Saturated, g.Saturated)
		}
	}
}

// buildModel assembles a model from spec strings the way the sweep layer
// does.
func buildModel(t testing.TB, orgSpec, links string, flits, flitBytes int, opt analytic.Options) *analytic.Model {
	t.Helper()
	org, err := system.ParseOrganization(orgSpec)
	if err != nil {
		t.Fatalf("org %q: %v", orgSpec, err)
	}
	sys, err := system.New(org)
	if err != nil {
		t.Fatalf("org %q: %v", orgSpec, err)
	}
	par := units.Default().WithMessage(flits, flitBytes)
	tiers, err := units.ParseTiers(links)
	if err != nil {
		t.Fatalf("links %q: %v", links, err)
	}
	par.Tiers = tiers
	m, err := analytic.New(sys, par, opt)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return m
}

// checkEquivalence runs a λ grid point-wise and through one Grid and asserts
// bit-identity of results and errors. The same Grid instance serves the whole
// grid, so memo reuse across points (and its clearing between points) is
// exercised too.
func checkEquivalence(t *testing.T, m *analytic.Model, lambdas []float64) {
	t.Helper()
	g := analytic.NewGrid(m)
	for _, l := range lambdas {
		want, wantErr := m.Evaluate(l)
		got, gotErr := g.Evaluate(l)
		if (wantErr == nil) != (gotErr == nil) ||
			errors.Is(wantErr, analytic.ErrSaturated) != errors.Is(gotErr, analytic.ErrSaturated) {
			t.Fatalf("λ=%v: errors diverged: pointwise %v grid %v", l, wantErr, gotErr)
		}
		requireSameResult(t, want, got)
	}
}

// loadGrid builds a λ grid reaching deliberately past the model's saturation
// point, so saturated results (and their Bottleneck strings) are compared
// too.
func loadGrid(m *analytic.Model, points int) []float64 {
	sat := m.SaturationPoint(1e-6, 1, 1e-3)
	if math.IsInf(sat, 1) {
		sat = 0.01
	}
	xs := make([]float64, 0, points+2)
	for i := 1; i <= points; i++ {
		xs = append(xs, 1.3*sat*float64(i)/float64(points))
	}
	// Edge points: zero load and exactly the bisected saturation estimate.
	return append(xs, 0, sat)
}

// equivCase is one model of the equivalence suite.
type equivCase struct {
	name      string
	org       string
	links     string
	flits, lm int
	opt       analytic.Options
}

// equivCases are the models TestGridEquivalence and
// TestGridHistoryIndependent cover.
func equivCases(t *testing.T) []equivCase {
	cases := []equivCase{
		{name: "org1-default", org: system.Format(system.Table1Org1()), flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "mixed-m8-m64", org: "m=8:8x1,8x2,4x3", flits: 64, lm: 512, opt: analytic.DefaultOptions()},
		{name: "hetero-shapes", org: "m=4:2x1,2x2@2,1x3", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "per-cluster-links", org: "m=4:2x1@ecn1=0.04/0.02/0.004,2x2@2", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "tier-override", org: "m=4:2x1,2x2", links: "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "paper-literal", org: system.Format(system.Table1Org2()), flits: 32, lm: 256, opt: analytic.PaperLiteralOptions()},
		// Groups of same-shape clusters, each differing from the first group
		// in exactly one memo input: the rate factor (by one ulp too), t_cn
		// or t_cs of the ECN1 or ICN1 class (the default class is
		// 0.02/0.01/0.002), or the ICN1 topology. Each must get its own
		// interned class, or the grid replays another cluster's result.
		{name: "intern-rate-factor", org: "m=4:3x2,3x2@2,3x2@1.0000000000000002", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "intern-ecn1-class", org: "m=4:3x2,3x2@ecn1=0.04/0.01/0.002,3x2@ecn1=0.02/0.03/0.002", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "intern-icn1-class", org: "m=4:3x2,3x2@icn1=0.04/0.01/0.002,3x2@icn1=0.02/0.03/0.002", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "intern-icn1-topo", org: "m=4:3x2,3x2@topo=jellyfish", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
	}
	// The grid copies a cluster's result from its predecessor when both
	// share every class. Equal clusters that are not adjacent (A, B, A)
	// must not be mistaken for a run, and a run broken by a rate factor or
	// a per-cluster link override must restart at the break: the copy
	// would otherwise read the neighbouring destination's pair terms. The
	// ECN1 override differs from the default class in α_net alone, so it
	// splits only the destination class.
	cases = append(cases,
		equivCase{name: "runs-not-adjacent", org: "m=4:3x2,2x1,3x2", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		equivCase{name: "runs-split-rate", org: "m=4:3x2,1x2@2,3x2", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		equivCase{name: "runs-split-icn1", org: "m=4:3x2,1x2@icn1=0.04/0.02/0.004,3x2", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		equivCase{name: "runs-split-ecn1", org: "m=4:3x2,1x2@ecn1=0.04/0.01/0.002,3x2", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
	)
	// The paper-literal preset's pair terms read both clusters' sizes
	// (the pair-extrapolated ICN2 rate of Eq. 7): Org1, a dragonfly ICN2
	// over jellyfish clusters, and equal clusters split by a smaller one.
	literal := analytic.PaperLiteralOptions()
	cases = append(cases,
		equivCase{name: "paper-literal-org1", org: system.Format(system.Table1Org1()), flits: 32, lm: 256, opt: literal},
		equivCase{name: "paper-literal-dragonfly", org: "m=4@icn2topo=dragonfly:8x2,4x3@topo=jellyfish", flits: 32, lm: 256, opt: literal},
		equivCase{name: "paper-literal-runs", org: "m=4:5x2,3x1,5x2", flits: 32, lm: 256, opt: literal},
	)
	// The hetero-links builtin sweeps one org against several tier specs;
	// every combination joins the table.
	if spec, ok := sweep.Builtin("hetero-links"); ok {
		opts, err := sweep.ModelOptions(spec.Model)
		if err != nil {
			t.Fatalf("hetero-links model options: %v", err)
		}
		for _, org := range spec.Orgs {
			for _, links := range spec.Links {
				if links == "uniform" {
					links = ""
				}
				cases = append(cases, equivCase{
					name: "builtin-hetero-links/" + org + "/" + links,
					org:  org, links: links, flits: 32, lm: 256, opt: opts,
				})
			}
		}
	} else {
		t.Fatal("builtin hetero-links missing")
	}
	return cases
}

func TestGridEquivalence(t *testing.T) {
	for _, c := range equivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			m := buildModel(t, c.org, c.links, c.flits, c.lm, c.opt)
			checkEquivalence(t, m, loadGrid(m, 9))
		})
	}
}

// TestGridHistoryIndependent pins what a process-wide shared Grid relies on:
// a grid that has already evaluated unrelated loads, saturated ones
// included, answers exactly like a fresh one. Its saturation search lands
// on a fresh Model's point and its latencies match a fresh grid's, bit for
// bit.
func TestGridHistoryIndependent(t *testing.T) {
	for _, c := range equivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			m := buildModel(t, c.org, c.links, c.flits, c.lm, c.opt)
			lambdas := loadGrid(m, 9)
			used := analytic.NewGrid(m)
			sat := lambdas[len(lambdas)-1]
			for _, l := range []float64{7 * sat, 0.37 * sat, 1.01 * sat, 1e-9, 3.3 * sat, 0.71 * sat} {
				used.MeanLatency(l)
			}
			want := buildModel(t, c.org, c.links, c.flits, c.lm, c.opt).SaturationPoint(1e-6, 1, 1e-3)
			if got := used.SaturationPoint(1e-6, 1, 1e-3); !bitsEqual(got, want) {
				t.Fatalf("used grid saturation point %x, fresh model %x", got, want)
			}
			for _, l := range lambdas {
				want, wantErr := analytic.NewGrid(m).MeanLatency(l)
				got, gotErr := used.MeanLatency(l)
				if !bitsEqual(got, want) || (wantErr == nil) != (gotErr == nil) ||
					errors.Is(wantErr, analytic.ErrSaturated) != errors.Is(gotErr, analytic.ErrSaturated) {
					t.Fatalf("λ=%v: used grid (%x, %v), fresh grid (%x, %v)", l, got, gotErr, want, wantErr)
				}
			}
		})
	}
}

// TestGridEvaluateInvalid pins that the grid rejects invalid loads exactly
// like the model.
func TestGridEvaluateInvalid(t *testing.T) {
	m := buildModel(t, "m=4:2x1,2x2", "", 32, 256, analytic.DefaultOptions())
	g := analytic.NewGrid(m)
	for _, bad := range []float64{-1, math.NaN()} {
		if _, err := g.Evaluate(bad); err == nil {
			t.Fatalf("λ=%v: grid accepted an invalid load", bad)
		}
	}
}

// walkSaturationPoint is the saturation search as it first ran: climb the
// ladder start·2^k a rung at a time up to limit, then bisect between the
// first saturated rung and the one below. The search that replaced it finds
// that rung by binary search over k and must land on the same bits whenever
// saturated crosses from false to true once. Its bisection stops where the
// search's does, once the midpoint no longer splits the bracket.
func walkSaturationPoint(saturated func(float64) bool, start, limit, tol float64) float64 {
	if start <= 0 {
		start = 1e-9
	}
	lo, hi := 0.0, start
	for !saturated(hi) {
		lo, hi = hi, 2*hi
		if hi > limit {
			return math.Inf(1)
		}
	}
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break
		}
		if saturated(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// referenceSaturationPoint is the rung walk over the un-memoized
// Model.Evaluate, the oracle both SaturationPoint methods must reproduce bit
// for bit.
func referenceSaturationPoint(m *analytic.Model, start, limit, tol float64) float64 {
	return walkSaturationPoint(func(l float64) bool {
		_, err := m.Evaluate(l)
		return errors.Is(err, analytic.ErrSaturated)
	}, start, limit, tol)
}

// TestGridSaturationPoint pins that Model.SaturationPoint (which searches on
// a throwaway Grid) and Grid.SaturationPoint land on the point-wise search's
// exact point, at the tolerances the sweep (1e-3) and the server (1e-4) use:
// for both Table 1 organizations under every topology axis the sweep-grid
// benchmark crosses them with, and for an organization with a per-cluster
// ECN1 link-tier override.
func TestGridSaturationPoint(t *testing.T) {
	var specs []string
	for _, table1 := range []func() system.Organization{system.Table1Org1, system.Table1Org2} {
		for _, axis := range []string{"fattree", "jellyfish", "fattree+dragonfly"} {
			org := table1()
			if err := system.ApplyTopologyAxis(&org, axis); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, system.Format(org))
		}
	}
	specs = append(specs, "m=4:2x1@ecn1=0.04/0.02/0.004,2x2@2")
	for _, spec := range specs {
		m := buildModel(t, spec, "", 32, 256, analytic.DefaultOptions())
		g := analytic.NewGrid(m)
		for _, tol := range []float64{1e-3, 1e-4} {
			want := referenceSaturationPoint(m, 1e-6, 1, tol)
			if math.IsInf(want, 1) {
				t.Fatalf("org %s: no saturation below λ=1", spec)
			}
			if got := m.SaturationPoint(1e-6, 1, tol); !bitsEqual(want, got) {
				t.Fatalf("org %s tol %g: Model.SaturationPoint %x, point-wise search %x", spec, tol, got, want)
			}
			if got := g.SaturationPoint(1e-6, 1, tol); !bitsEqual(want, got) {
				t.Fatalf("org %s tol %g: Grid.SaturationPoint %x, point-wise search %x", spec, tol, got, want)
			}
		}
	}
}

// fuzzModel builds a small organization from fuzzer-chosen bytes, skipping
// the ones that do not build. The second spec B follows the first, A, and
// shape picks what sets B apart: its low two bits choose a rate factor of
// 2, an ICN1 override, an ECN1 override of α_net alone (which splits only
// the destination class) or nothing (so that A and an equal-levels B form
// one run); bit 2 repeats A after B (A, B, A); bit 3 selects the
// paper-literal preset instead of the calibrated one.
func fuzzModel(t *testing.T, ports, lv1, lv2, cnt1, cnt2, shape uint8) *analytic.Model {
	// Clamp to valid, small organizations: even ports ≥ 2, levels ≥ 1,
	// at least two clusters total.
	p := 2 + 2*int(ports%3) // 2, 4, 6
	l1, l2 := 1+int(lv1%3), 1+int(lv2%3)
	c1, c2 := 1+int(cnt1%3), int(cnt2%3)
	if c1+c2 < 2 {
		c1 = 2
	}
	a := system.ClusterSpec{Count: c1, Levels: l1}
	org := system.Organization{Ports: p, Specs: []system.ClusterSpec{a}}
	if c2 > 0 {
		b := system.ClusterSpec{Count: c2, Levels: l2}
		switch shape % 4 {
		case 0:
			b.RateFactor = 2
		case 1:
			b.ICN1 = &units.LinkClass{AlphaNet: 0.04, AlphaSw: 0.02, BetaNet: 0.004}
		case 2:
			b.ECN1 = &units.LinkClass{AlphaNet: 0.04, AlphaSw: 0.01, BetaNet: 0.002}
		}
		org.Specs = append(org.Specs, b)
		if shape&4 != 0 {
			org.Specs = append(org.Specs, a)
		}
	}
	opt := analytic.DefaultOptions()
	if shape&8 != 0 {
		opt = analytic.PaperLiteralOptions()
	}
	sys, err := system.New(org)
	if err != nil {
		t.Skip()
	}
	m, err := analytic.New(sys, units.Default(), opt)
	if err != nil {
		t.Skip()
	}
	return m
}

// FuzzGridEquivalence drives the equivalence property over fuzzer-chosen
// organization shapes and load grids: whatever the topology, cluster mix and
// λ spacing, Grid.Evaluate must be bit-identical to Model.Evaluate. The
// organizations come from fuzzModel.
func FuzzGridEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(2), uint8(2), uint8(2), float64(2e-4), uint8(6), uint8(0))
	f.Add(uint8(8), uint8(2), uint8(2), uint8(4), uint8(0), float64(1e-3), uint8(3), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(1), uint8(7), float64(5e-5), uint8(9), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(2), uint8(1), float64(2e-4), uint8(5), uint8(4))
	f.Add(uint8(4), uint8(2), uint8(2), uint8(1), uint8(1), float64(2e-4), uint8(5), uint8(5))
	f.Add(uint8(4), uint8(2), uint8(2), uint8(2), uint8(1), float64(3e-4), uint8(4), uint8(6))
	f.Add(uint8(4), uint8(1), uint8(1), uint8(2), uint8(2), float64(5e-4), uint8(7), uint8(7))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(2), uint8(1), float64(2e-4), uint8(6), uint8(15))
	f.Fuzz(func(t *testing.T, ports, lv1, lv2, cnt1, cnt2 uint8, lamTop float64, points, shape uint8) {
		m := fuzzModel(t, ports, lv1, lv2, cnt1, cnt2, shape)
		if math.IsNaN(lamTop) || lamTop <= 0 || lamTop > 1 {
			lamTop = 1e-4
		}
		n := 1 + int(points%8)
		lambdas := make([]float64, n)
		for i := range lambdas {
			lambdas[i] = lamTop * float64(i+1) / float64(n)
		}
		g := analytic.NewGrid(m)
		for _, l := range lambdas {
			want, wantErr := m.Evaluate(l)
			got, gotErr := g.Evaluate(l)
			if errors.Is(wantErr, analytic.ErrSaturated) != errors.Is(gotErr, analytic.ErrSaturated) {
				t.Fatalf("λ=%v: errors diverged: %v vs %v", l, wantErr, gotErr)
			}
			requireSameResult(t, want, got)
		}
	})
}
