package analytic_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mcnet/internal/sweep"
	"mcnet/internal/system"
)

// -update-golden regenerates testdata/evaluate_golden.txt from the current
// model. Only do this deliberately: the fixture exists so that changes to the
// evaluator can prove themselves bit-identical, and regenerating it erases
// that evidence.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden model evaluations")

// goldenFractions place each case's λ grid relative to its saturation point:
// zero load, the stable range, both sides of the point, and far past it, where
// clusters saturate one after another and then inside their ICN1 chains.
var goldenFractions = []float64{0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 1.01, 1.1, 1.3, 2, 5, 20, 100}

// goldenCase is one model configuration pinned by the fixture. model names
// its preset the way sweep.ModelOptions does: "calibrated" or
// "paper-literal".
type goldenCase struct {
	name      string
	org       string
	links     string
	flits, lm int
	model     string
}

func goldenCases() []goldenCase {
	axis := func(org system.Organization, a string) string {
		if err := system.ApplyTopologyAxis(&org, a); err != nil {
			panic(err)
		}
		return system.Format(org)
	}
	org1, org2 := system.Format(system.Table1Org1()), system.Format(system.Table1Org2())
	return []goldenCase{
		{name: "org1", org: org1, flits: 32, lm: 256, model: "calibrated"},
		{name: "org2", org: org2, flits: 32, lm: 256, model: "calibrated"},
		{name: "org1-jellyfish", org: axis(system.Table1Org1(), "jellyfish"), flits: 32, lm: 256, model: "calibrated"},
		{name: "org2-dragonfly", org: axis(system.Table1Org2(), "fattree+dragonfly"), flits: 32, lm: 256, model: "calibrated"},
		{name: "org2-jellyfish-dragonfly", org: axis(system.Table1Org2(), "jellyfish+dragonfly"), flits: 64, lm: 512, model: "calibrated"},
		{name: "cluster-overrides", org: "m=4:2x1@ecn1=0.04/0.02/0.004,2x2@2,1x3@icn1=0.01/0.005/0.001,2x2@topo=jellyfish", flits: 32, lm: 256, model: "calibrated"},
		{name: "tier-overrides", org: org2, links: "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004", flits: 32, lm: 256, model: "calibrated"},
		{name: "icn1-tier", org: org1, links: "icn1=0.01/0.005/0.001", flits: 32, lm: 256, model: "calibrated"},
		{name: "paper-literal", org: org2, flits: 32, lm: 256, model: "paper-literal"},
		{name: "paper-literal-rate", org: "m=8:12x1,16x2@2,4x3", flits: 64, lm: 512, model: "paper-literal"},
	}
}

// bits renders a float as its IEEE-754 bit pattern.
func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// writeGolden renders every case's λ grid: per point the load, the mean
// latency, the saturation flag and bottleneck, then one line per run of
// consecutive clusters with identical results (every ClusterResult field as
// bits).
func writeGolden(t *testing.T, b *bytes.Buffer) {
	for _, c := range goldenCases() {
		opt, err := sweep.ModelOptions(c.model)
		if err != nil {
			t.Fatal(err)
		}
		m := buildModel(t, c.org, c.links, c.flits, c.lm, opt)
		sat := m.SaturationPoint(1e-6, 1, 1e-3)
		fmt.Fprintf(b, "case %s org=%s links=%q M=%d Lm=%d model=%s sat=%s\n", c.name, c.org, c.links, c.flits, c.lm, c.model, bits(sat))
		for _, f := range goldenFractions {
			l := f * sat
			res, _ := m.Evaluate(l)
			fmt.Fprintf(b, "λ=%s mean=%s saturated=%v bottleneck=%q\n", bits(l), bits(res.MeanLatency), res.Saturated, res.Bottleneck)
			lines := make([]string, len(res.PerCluster))
			for i, cr := range res.PerCluster {
				lines[i] = fmt.Sprintf("%s %s %s %s %s %s %s %s %s %s %s %v",
					bits(cr.POut), bits(cr.WIntra), bits(cr.SIntra), bits(cr.RIntra), bits(cr.TIntra),
					bits(cr.WInter), bits(cr.SInter), bits(cr.RInter), bits(cr.TInter),
					bits(cr.WConc), bits(cr.Latency), cr.Saturated)
			}
			for i := 0; i < len(lines); {
				j := i + 1
				for j < len(lines) && lines[j] == lines[i] {
					j++
				}
				fmt.Fprintf(b, "  %d-%d %s\n", i, j-1, lines[i])
				i = j
			}
		}
	}
}

// TestEvaluateGolden pins Model.Evaluate bit for bit over organizations,
// topology axes, per-cluster and per-tier link overrides, rate factors and
// both model presets, on λ grids running far past saturation. Grid and Model
// share one evaluation path, so FuzzGridEquivalence cannot see a change in
// that path; this fixture can. Regenerate with -update-golden.
func TestEvaluateGolden(t *testing.T) {
	var got bytes.Buffer
	writeGolden(t, &got)
	path := filepath.Join("testdata", "evaluate_golden.txt")
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
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("model evaluations diverged from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("model evaluations diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
