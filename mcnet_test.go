package mcnet

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestFacadeAnalyze(t *testing.T) {
	v, err := Analyze(Table1Org2(), DefaultParams(), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || math.IsInf(v, 0) {
		t.Errorf("latency = %v", v)
	}
}

func TestFacadeSaturation(t *testing.T) {
	sat, err := SaturationPoint(Table1Org1(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sat < 1e-4 || sat > 2e-3 {
		t.Errorf("λ_sat = %v outside the expected decade", sat)
	}
	if _, err := Analyze(Table1Org1(), DefaultParams(), 2*sat); !errors.Is(err, ErrSaturated) {
		t.Errorf("2·λ_sat: err = %v, want ErrSaturated", err)
	}
}

func TestFacadeCompare(t *testing.T) {
	org := Organization{
		Name:  "facade-test",
		Ports: 4,
		Specs: []ClusterSpec{{Count: 2, Levels: 1}, {Count: 2, Levels: 2}},
	}
	cmp, err := Compare(org, DefaultParams(), 5e-4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.AnalysisSaturated {
		t.Fatal("unexpected saturation at mild load")
	}
	if cmp.RelativeError > 0.25 {
		t.Errorf("relative error %v too large: analysis=%v sim=%v",
			cmp.RelativeError, cmp.Analysis, cmp.Simulation)
	}
}

// TestCompareSaturatedHasNoRelativeError checks that a load past the
// model's saturation leaves nothing to compare: RelativeError is NaN, so a
// caller filtering on RelativeError < tol does not count the point as exact.
func TestCompareSaturatedHasNoRelativeError(t *testing.T) {
	org, err := ParseOrganization("m=4:2x1,2x2")
	if err != nil {
		t.Fatal(err)
	}
	sat, err := SaturationPoint(org, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(org, DefaultParams(), 1.5*sat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.AnalysisSaturated || !math.IsInf(cmp.Analysis, 1) {
		t.Fatalf("1.5·λ_sat: AnalysisSaturated=%t Analysis=%v, want saturated +Inf", cmp.AnalysisSaturated, cmp.Analysis)
	}
	if !math.IsNaN(cmp.RelativeError) {
		t.Errorf("RelativeError = %v at a saturated point, want NaN", cmp.RelativeError)
	}
}

func TestFacadeRejectsBadOrg(t *testing.T) {
	if _, err := Analyze(Organization{Ports: 3}, DefaultParams(), 1e-4); err == nil {
		t.Error("bad organization accepted")
	}
	if _, err := NewModel(Organization{Ports: 3}, DefaultParams()); err == nil {
		t.Error("bad organization accepted by NewModel")
	}
	if _, err := SaturationPoint(Organization{Ports: 3}, DefaultParams()); err == nil {
		t.Error("bad organization accepted by SaturationPoint")
	}
}

func TestParseOrganizationFacade(t *testing.T) {
	org, err := ParseOrganization("org2")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(org)
	if err != nil {
		t.Fatal(err)
	}
	if sys.TotalNodes() != 544 {
		t.Errorf("N = %d, want 544", sys.TotalNodes())
	}
}

// TestCompareMatchesDirectConfig pins Compare's simulation to the
// paper-methodology configuration written out by hand: the same
// organization, parameters, load and seed, with 10k/100k/10k message
// phases. Every case runs at a load where the model and the simulation
// are both finite, so the whole Comparison is compared.
func TestCompareMatchesDirectConfig(t *testing.T) {
	icn2 := LinkClass{AlphaNet: 0.04, AlphaSw: 0.02, BetaNet: 0.004}
	slow := DefaultParams().WithMessage(16, 128)
	slow.Tiers = TierParams{ICN2: &icn2}
	cases := []struct {
		name   string
		org    string
		par    Params
		lambda float64
		seed   uint64
	}{
		{"named org", "org2", DefaultParams(), 1e-4, 7},
		{"org1", "org1", DefaultParams(), 1e-4, 9},
		{"rates and cluster link", "m=4:2x1@2,2x2@icn1=0.04/0.02/0.004,1x3@0.5", DefaultParams(), 3e-4, 11},
		{"topologies", "m=4@icn2topo=dragonfly:2x2@topo=jellyfish,2x3", DefaultParams(), 2e-4, 3},
		{"tier override and geometry", "m=4@icn2topo=dragonfly:2x1@1.5,2x2@topo=jellyfish", slow, 4e-4, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			org, err := ParseOrganization(c.org)
			if err != nil {
				t.Fatal(err)
			}
			an, err := Analyze(org, c.par, c.lambda)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Simulate(SimConfig{
				Org: org, Par: c.par, LambdaG: c.lambda,
				Warmup: 10000, Measure: 100000, Drain: 10000, Seed: c.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim := res.Latency.Mean
			if math.IsInf(an, 0) || math.IsNaN(an) || !(sim > 0) {
				t.Fatalf("reference is not finite: analysis=%v simulation=%v", an, sim)
			}
			want := Comparison{LambdaG: c.lambda, Analysis: an, Simulation: sim,
				RelativeError: math.Abs(an-sim) / sim}
			got, err := Compare(org, c.par, c.lambda, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
				t.Errorf("Compare = %s\nwant      %s", g, w)
			}
		})
	}
}
