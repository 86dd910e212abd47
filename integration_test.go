package mcnet

import (
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/experiments"
	"mcnet/internal/mcsim"
	"mcnet/internal/repro"
	"mcnet/internal/rng"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// randomOrg draws a small random heterogeneous organization. Sizes are
// bounded so a simulation stays in the low milliseconds.
func randomOrg(src *rng.Source) Organization {
	ports := []int{4, 6}[src.Intn(2)]
	groups := 1 + src.Intn(3)
	org := Organization{Name: "random", Ports: ports}
	for g := 0; g < groups; g++ {
		org.Specs = append(org.Specs, ClusterSpec{
			Count:  1 + src.Intn(3),
			Levels: 1 + src.Intn(2),
		})
	}
	// Guarantee at least two clusters.
	if org.Specs[0].Count < 2 && groups == 1 {
		org.Specs[0].Count = 2
	}
	return org
}

// TestRandomOrganizationsEndToEnd cross-checks the full stack on randomized
// systems: the simulator must conserve messages, report the Eq. 13 traffic
// split, and agree with the model at low load.
func TestRandomOrganizationsEndToEnd(t *testing.T) {
	src := rng.New(2026)
	for trial := 0; trial < 8; trial++ {
		org := randomOrg(src)
		sys, err := system.New(org)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		par := units.Default()
		model, err := analytic.New(sys, par, analytic.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sat := model.SaturationPoint(1e-6, 10, 1e-3)
		if math.IsInf(sat, 1) || sat <= 0 {
			t.Fatalf("trial %d (%d ports, %d clusters): λ_sat = %v",
				trial, org.Ports, sys.C(), sat)
		}
		lambda := 0.15 * sat
		res, err := mcsim.Run(mcsim.Config{
			Org: org, Par: par, LambdaG: lambda,
			Warmup: 300, Measure: 4000, Drain: 300, Seed: uint64(trial + 1),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.DeliveredMeasured != 4000 {
			t.Errorf("trial %d: delivered %d/4000", trial, res.DeliveredMeasured)
		}
		// Eq. 13 check: observed inter-cluster share vs node-weighted P_o.
		var wantPOut float64
		for i, c := range sys.Clusters {
			wantPOut += float64(c.Nodes) / float64(sys.TotalNodes()) * sys.POut(i)
		}
		if math.Abs(res.ObservedPOut-wantPOut) > 0.05 {
			t.Errorf("trial %d: observed P_out %v vs Eq. 13 %v", trial, res.ObservedPOut, wantPOut)
		}
		// Low-load model agreement.
		an, err := model.MeanLatency(lambda)
		if err != nil {
			t.Fatalf("trial %d: model saturated at 15%% of its own λ_sat", trial)
		}
		if rel := math.Abs(an-res.Latency.Mean) / res.Latency.Mean; rel > 0.15 {
			t.Errorf("trial %d (%s): low-load model error %.1f%% (analysis %v, sim %v)",
				trial, sys.Summary(), 100*rel, an, res.Latency.Mean)
		}
	}
}

// TestValidationSweepOnTable1Orgs runs a reduced Lm=256 latency panel on
// both paper organizations through the sweep engine and judges it with the
// fidelity gate's agreement metric.
func TestValidationSweepOnTable1Orgs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation validation sweep skipped in -short mode")
	}
	r := experiments.NewRunner(experiments.Scale{Warmup: 1000, Measure: 12000, Drain: 1000, Seed: 9})
	for _, org := range []Organization{Table1Org1(), Table1Org2()} {
		fig, err := r.LatencyFigure("validate", org.Name, org, 32, []int{256}, 6)
		if err != nil {
			t.Fatalf("%s: %v", org.Name, err)
		}
		pa := repro.Agree(fig.Series(), experiments.Pair{Analysis: "analysis Lm=256", Simulation: "simulation Lm=256"}, 0.15)
		if !pa.Pass {
			t.Errorf("%s: steady-state agreement %+v, want mean relative error ≤ 15%%", org.Name, pa)
		}
		// The simulated knee, when visible, must sit left of the model's
		// stability boundary.
		sat, err := SaturationPoint(org, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: steady-state mean error %.1f%% over %d points, knee %v, model λ_sat %v",
			org.Name, 100*float64(pa.MeanRelErr), pa.Points, float64(pa.SimSatLambda), sat)
		if knee := float64(pa.SimSatLambda); !math.IsNaN(knee) && knee > sat {
			t.Errorf("%s: knee %v beyond model λ_sat %v", org.Name, knee, sat)
		}
	}
}

// TestPerClusterHeterogeneityAgreement checks the paper's subject directly:
// per-source-cluster latencies under cluster-size heterogeneity. At modest
// load every cluster's model latency ℓ_i (Eq. 35) must track its simulated
// latency, and the size ordering must agree between the two sides.
func TestPerClusterHeterogeneityAgreement(t *testing.T) {
	org := Organization{
		Name:  "per-cluster",
		Ports: 4,
		Specs: []ClusterSpec{{Count: 2, Levels: 1}, {Count: 2, Levels: 2}},
	}
	sys := system.MustNew(org)
	par := units.Default()
	model, err := analytic.New(sys, par, analytic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.3 * model.SaturationPoint(1e-6, 1, 1e-3)
	an, err := model.Evaluate(lambda)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mcsim.Run(mcsim.Config{
		Org: org, Par: par, LambdaG: lambda,
		Warmup: 500, Measure: 12000, Drain: 500, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.PerCluster) != 4 || len(sim.PerCluster) != 4 {
		t.Fatalf("clusters: analysis %d, simulation %d, want 4", len(an.PerCluster), len(sim.PerCluster))
	}
	// Ordering: the small clusters (4 nodes) vs the large (8 nodes) must
	// sort the same way in both columns.
	var smallA, smallS, largeA, largeS float64
	for i := range an.PerCluster {
		a, s := an.PerCluster[i].Latency, sim.PerCluster[i].Mean
		if rel := math.Abs(a-s) / s; !(rel <= 0.20) {
			t.Errorf("cluster %d (N_i=%d): per-cluster error %.1f%% (analysis %v, sim %v)",
				i, sys.Clusters[i].Nodes, 100*rel, a, s)
		}
		if sys.Clusters[i].Nodes == 4 {
			smallA, smallS = a, s
		} else {
			largeA, largeS = a, s
		}
	}
	if (smallA < largeA) != (smallS < largeS) {
		t.Errorf("size ordering disagrees: analysis (%v vs %v), sim (%v vs %v)",
			smallA, largeA, smallS, largeS)
	}
}

// TestGeometryScalingShapes verifies the cross-panel shape of the paper on
// the facade level: doubling message length roughly halves the sustainable
// traffic and roughly doubles zero-load latency.
func TestGeometryScalingShapes(t *testing.T) {
	org := Table1Org2()
	base := DefaultParams()
	double := base.WithMessage(64, 256)
	satBase, err := SaturationPoint(org, base)
	if err != nil {
		t.Fatal(err)
	}
	satDouble, err := SaturationPoint(org, double)
	if err != nil {
		t.Fatal(err)
	}
	if r := satBase / satDouble; r < 1.7 || r > 2.3 {
		t.Errorf("M 32→64 scaled λ_sat by %v, want ≈2", r)
	}
	lb, err := Analyze(org, base, satBase/100)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Analyze(org, double, satBase/100)
	if err != nil {
		t.Fatal(err)
	}
	if r := ld / lb; r < 1.6 || r > 2.4 {
		t.Errorf("M 32→64 scaled zero-load latency by %v, want ≈2", r)
	}
}
