package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcnet/internal/plot"
	"mcnet/internal/sweep"
)

// -update-golden regenerates testdata/grids_golden.txt. The fixture pins
// every study's load grid and model curve bit for bit, so a refactor of how
// the studies lay out their grids can prove itself output-identical;
// regenerating it erases that evidence.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/grids_golden.txt")

// hexBits renders values as their IEEE-754 bit patterns, so the fixture
// compares every bit (NaN included).
func hexBits(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, ",")
}

// TestGridsGolden runs every manifest study that produces series at quick
// scale with 5-point grids (the mcrepro -small setting) and records, per
// study: a figure's x-axis edge (Figure.XMax); the λ of every sweep job it
// ran, in job order; each series label with its x values; and the y values
// of every model curve ("analysis …" or "model …" labels). Simulated y
// values are left out: the sweep package's golden CSVs pin the simulator.
func TestGridsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study's simulation grid")
	}
	const points = 5
	var b bytes.Buffer
	for _, e := range Manifest() {
		if e.Series == nil {
			continue
		}
		type capture struct {
			name string
			mem  *sweep.MemorySink
		}
		var sweeps []capture
		r := NewRunner(QuickScale())
		r.ExtraSinks = func(spec sweep.Spec) []sweep.Sink {
			c := capture{name: spec.Name, mem: &sweep.MemorySink{}}
			sweeps = append(sweeps, c)
			return []sweep.Sink{c.mem}
		}
		fmt.Fprintf(&b, "entry %s\n", e.Name)
		var series []plot.Series
		var err error
		if e.Figure != nil {
			fig, err := e.Figure(r, points)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			fmt.Fprintf(&b, "xmax %s\n", hexBits([]float64{fig.XMax}))
			series = fig.Series()
		} else if series, err = e.Series(r, points); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, c := range sweeps {
			lambdas := make([]float64, len(c.mem.Results))
			for i, res := range c.mem.Results {
				lambdas[i] = res.Job.Lambda
			}
			fmt.Fprintf(&b, "sweep %s jobs=%s\n", c.name, hexBits(lambdas))
		}
		for _, s := range series {
			fmt.Fprintf(&b, "series %q x=%s\n", s.Label, hexBits(s.X))
			if strings.HasPrefix(s.Label, "analysis") || strings.HasPrefix(s.Label, "model") {
				fmt.Fprintf(&b, "  y=%s\n", hexBits(s.Y))
			}
		}
	}
	path := filepath.Join("testdata", "grids_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got := strings.Split(b.String(), "\n")
		exp := strings.Split(string(want), "\n")
		for i := range min(len(got), len(exp)) {
			if got[i] != exp[i] {
				t.Fatalf("grids differ from %s at line %d:\n got  %s\n want %s", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("grids differ from %s: %d lines, want %d", path, len(got), len(exp))
	}
}
