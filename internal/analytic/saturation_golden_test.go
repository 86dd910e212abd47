package analytic_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcnet"
	"mcnet/internal/experiments"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/topo"
	"mcnet/internal/units"
)

// satWriter renders one line per saturation search: where the repository
// asks for it, the model's memo key, the tolerance and the point's bits.
type satWriter struct {
	t *testing.T
	b bytes.Buffer
}

func (w *satWriter) line(source, key string, tol, sat float64) {
	fmt.Fprintf(&w.b, "%s %s tol=%g sat=%s\n", source, key, tol, bits(sat))
}

// model searches the memoized sweep model of the given identity, as every
// sweep, study and /v1/analyze search does.
func (w *satWriter) model(source, preset, org, links, topoAxis string, par units.Params, tol float64) float64 {
	w.t.Helper()
	sat, err := sweep.ModelFor(preset, org, links, topoAxis, par).SaturationPoint(tol)
	if err != nil {
		w.t.Fatalf("%s: %v", source, err)
	}
	w.line(source, sweep.ModelKey(preset, org, links, topoAxis, par), tol, sat)
	return sat
}

// placements records the distinct calibrated models that place spec's load
// grids, in job order, at the placement tolerance 1e-3.
func (w *satWriter) placements(spec sweep.Spec) {
	w.t.Helper()
	jobs, err := sweep.Expand(spec)
	if err != nil {
		w.t.Fatalf("spec %s: %v", spec.Name, err)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		par, err := j.Params()
		if err != nil {
			w.t.Fatal(err)
		}
		key := sweep.ModelKey("calibrated", j.Org, j.Links, j.Topo, par)
		if !seen[key] {
			seen[key] = true
			w.model("placement/"+spec.Name, "calibrated", j.Org, j.Links, j.Topo, par, 1e-3)
		}
	}
}

// writeSaturationGolden searches every saturation point the repository asks
// for.
func writeSaturationGolden(t *testing.T) []byte {
	w := &satWriter{t: t}

	// Load-grid placement: every builtin sweep, the end-to-end benchmark's
	// sweep-grid spec and the rate-heterogeneity study's organization (the
	// other studies place their grids on the figures' models).
	for _, name := range sweep.BuiltinNames() {
		spec, _ := sweep.Builtin(name)
		w.placements(spec)
	}
	w.placements(sweep.Spec{
		Name:       "perfbench-grid",
		Orgs:       []string{"org1", "org2"},
		Topologies: []string{"fattree", "jellyfish", "fattree+dragonfly"},
		Arrivals:   []string{"poisson", "mmpp:8:16"},
		Loads:      sweep.Loads{Points: 4, MaxFraction: 0.9},
	})
	w.placements(sweep.Spec{
		Name:  "rate-hetero",
		Orgs:  []string{"m=4:4x2@2,4x2"},
		Loads: sweep.Loads{Points: 5, MaxFraction: 0.5},
	})

	// The studies' own searches (internal/experiments): the figures'
	// x-axis edges, the earliest saturation over a study's link or topology
	// configurations, and the interpretation ablation's two models.
	org1, org2 := system.Table1Org1(), system.Table1Org2()
	for _, org := range []system.Organization{org1, org2} {
		for _, m := range []int{32, 64} {
			for _, lm := range []int{256, 512} {
				w.model("study/figure", "calibrated", system.Format(org), "", "", units.Default().WithMessage(m, lm), 1e-3)
			}
		}
	}
	for _, c := range experiments.LinkHeterogeneityConfigs {
		tiers, err := units.ParseTiers(c.Links)
		if err != nil {
			t.Fatal(err)
		}
		par := units.Default()
		par.Tiers = tiers
		w.model("study/link-hetero", "calibrated", system.Format(org2), tiers.String(), "", par, 1e-3)
	}
	for _, name := range experiments.ContentionOrgs {
		org, err := system.ParseOrganization(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range experiments.TopologyConfigs {
			cl, gl, err := topo.ParseAxis(c.Axis)
			if err != nil {
				t.Fatal(err)
			}
			w.model("study/topologies", "calibrated", system.Format(org), "", topo.FormatAxis(cl, gl), units.Default(), 1e-3)
		}
	}
	for _, preset := range []string{"calibrated", "paper-literal"} {
		w.model("study/ablation-icn2", preset, system.Format(org1), "", "", units.Default(), 1e-3)
	}
	rows, err := experiments.SaturationSummary()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		par := units.Default().WithMessage(r.MFlits, r.FlitBytes)
		org, err := system.ParseOrganization(r.Org)
		if err != nil {
			t.Fatal(err)
		}
		key := sweep.ModelKey("calibrated", system.Format(org), "", "", par)
		w.line("study/saturation/"+r.Panel, key, 1e-4, r.ModelSat)
		w.line("study/saturation/"+r.Panel, "baseline|"+key, 1e-4, r.BaselineSat)
	}

	// /v1/analyze's search on the scenarios its golden pins; each must
	// land on the point that golden serves.
	f, err := os.Open(filepath.Join("..", "serve", "testdata", "analyze_golden.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var resp struct {
			Org       string  `json:"org"`
			Flits     int     `json:"flits"`
			FlitBytes int     `json:"flit_bytes"`
			Links     string  `json:"links"`
			Model     string  `json:"model"`
			Sat       float64 `json:"saturation_point"`
		}
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		tiers, err := units.ParseTiers(resp.Links)
		if err != nil {
			t.Fatal(err)
		}
		par := units.Default()
		par.Tiers = tiers
		par = par.WithMessage(resp.Flits, resp.FlitBytes)
		if sat := w.model("analyze", resp.Model, resp.Org, tiers.String(), "", par, 1e-4); !bitsEqual(sat, resp.Sat) {
			t.Fatalf("analyze %s: searched %v, the analyze golden serves %v", resp.Org, sat, resp.Sat)
		}
	}

	// The public facade.
	for _, c := range []struct {
		name string
		org  mcnet.Organization
	}{{"org1", mcnet.Table1Org1()}, {"org2", mcnet.Table1Org2()}} {
		sat, err := mcnet.SaturationPoint(c.org, mcnet.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		w.line("mcnet.SaturationPoint", c.name, 1e-4, sat)
	}
	return w.b.Bytes()
}

// TestSaturationGolden pins the bits of every saturation point the
// repository asks for: the sweeps' load-grid placements, the studies'
// searches (the wormhole model at 1e-3 and 1e-4, the store-and-forward
// baseline at 1e-4), /v1/analyze's and mcnet.SaturationPoint's. Every load
// grid, model curve and served point derives from these, so a change to the
// search must leave the file unchanged. Regenerate with -update-golden.
func TestSaturationGolden(t *testing.T) {
	got := writeSaturationGolden(t)
	path := filepath.Join("testdata", "saturation_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("saturation points diverged from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("saturation points diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
