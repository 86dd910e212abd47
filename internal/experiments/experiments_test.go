package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/plot"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// memCache is an in-memory sweep.Cache: a map behind a mutex, safe for the
// engine's concurrent workers.
type memCache struct {
	mu sync.Mutex
	m  map[string]sweep.Outcome
}

func (c *memCache) Get(key string) (sweep.Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.m[key]
	return o, ok
}

func (c *memCache) Put(key string, o sweep.Outcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = o
	return nil
}

// tinyScale keeps the simulation side of the tests fast.
func tinyScale() Scale { return Scale{Warmup: 300, Measure: 3000, Drain: 300, Seed: 1, Reps: 1} }

func tinyOrg() system.Organization {
	return system.Organization{
		Name:  "tiny",
		Ports: 4,
		Specs: []system.ClusterSpec{
			{Count: 2, Levels: 1},
			{Count: 2, Levels: 2},
		},
	}
}

func TestLatencyFigureStructure(t *testing.T) {
	r := NewRunner(tinyScale())
	fig, err := r.LatencyFigure("test", "test panel", tinyOrg(), 32, []int{256, 512}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fig.XMax <= 0 {
		t.Fatalf("XMax = %v", fig.XMax)
	}
	if len(fig.Curves) != 2 {
		t.Fatalf("curves = %d, want 2", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if len(c.Points) != 5 {
			t.Fatalf("%s: %d points, want 5", c.Label, len(c.Points))
		}
		sawAnalysis := false
		for i, p := range c.Points {
			if p.Lambda <= 0 || p.Lambda > fig.XMax*1.0001 {
				t.Errorf("%s[%d]: λ=%v outside (0, %v]", c.Label, i, p.Lambda, fig.XMax)
			}
			if !p.AnalysisSaturated {
				sawAnalysis = true
				if p.Analysis <= 0 || math.IsNaN(p.Analysis) {
					t.Errorf("%s[%d]: analysis = %v", c.Label, i, p.Analysis)
				}
			}
			if math.IsNaN(p.Simulation) || p.Simulation <= 0 {
				t.Errorf("%s[%d]: simulation = %v", c.Label, i, p.Simulation)
			}
		}
		if !sawAnalysis {
			t.Errorf("%s: every analysis point saturated", c.Label)
		}
	}
	// The Lm=512 curve must saturate earlier (its model curve ends first).
	sat256, sat512 := 0, 0
	for _, p := range fig.Curves[0].Points {
		if p.AnalysisSaturated {
			sat256++
		}
	}
	for _, p := range fig.Curves[1].Points {
		if p.AnalysisSaturated {
			sat512++
		}
	}
	if sat512 <= sat256 {
		t.Errorf("Lm=512 should have more saturated points (%d) than Lm=256 (%d)", sat512, sat256)
	}
}

func TestFigureRenderAndSeries(t *testing.T) {
	r := NewRunner(tinyScale())
	fig, err := r.LatencyFigure("render", "render panel", tinyOrg(), 32, []int{256}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fig.Series()); got != 2 {
		t.Fatalf("series = %d, want 2 (analysis+simulation)", got)
	}
}

func TestTable1Regeneration(t *testing.T) {
	out := Table1()
	for _, frag := range []string{
		"Table 1", "N=1120", "C=32", "m=8", "N=544", "C=16", "m=4",
		"n_i=1", "n_i=5",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 1 output missing %q", frag)
		}
	}
}

func TestReplicationsProduceErrorBars(t *testing.T) {
	scale := tinyScale()
	scale.Reps = 3
	r := NewRunner(scale)
	fig, err := r.LatencyFigure("reps", "replications", tinyOrg(), 32, []int{256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, p := range fig.Curves[0].Points {
		if p.SimStdDev > 0 {
			saw = true
		}
	}
	if !saw {
		t.Error("no point carries a replication standard deviation")
	}
}

func TestTrafficPatternStudy(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.TrafficPatternStudy(tinyOrg(), units.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 (analysis + 3 patterns)", len(series))
	}
	// Cluster-local traffic avoids the inter path and must be faster than
	// uniform at the same offered load.
	uniform, local := series[1], series[3]
	for i := range uniform.Y {
		if !(local.Y[i] < uniform.Y[i]) {
			t.Errorf("point %d: cluster-local %v not below uniform %v", i, local.Y[i], uniform.Y[i])
		}
	}
}

func TestWorkloadStudy(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.WorkloadStudy(tinyOrg(), units.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 7 {
		t.Fatalf("series = %d, want 7 (analysis + 3 arrivals × 2 sizes)", len(series))
	}
	if series[0].Label != "analysis poisson/fixed" {
		t.Fatalf("series[0] = %q, want the analytic reference", series[0].Label)
	}
	// Every simulation series must be populated (no zero holes from a bad
	// aggregation key) …
	for _, s := range series[1:] {
		for i, y := range s.Y {
			if y <= 0 || math.IsNaN(y) {
				t.Errorf("%s point %d: unpopulated latency %v", s.Label, i, y)
			}
		}
	}
	// … and at the highest load the burstiest workload must diverge upward
	// from Poisson/fixed — the divergence this study exists to quantify.
	last := len(series[1].Y) - 1
	poisson, burstiest := series[1], series[5] // mmpp:64:64 / fixed
	if !strings.Contains(burstiest.Label, "mmpp:64:64") {
		t.Fatalf("series[5] = %q, want the mmpp:64:64/fixed row", burstiest.Label)
	}
	if !(burstiest.Y[last] > 1.2*poisson.Y[last]) {
		t.Errorf("burstiest workload %v not clearly above poisson %v at the top load",
			burstiest.Y[last], poisson.Y[last])
	}
}

func TestLinkHeterogeneityStudy(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.LinkHeterogeneityStudy(tinyOrg(), units.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6 (analysis+sim per link configuration)", len(series))
	}
	simUniform, simSlow, simFast := series[1], series[3], series[5]
	for _, s := range series {
		for i, y := range s.Y {
			if math.IsNaN(y) || y <= 0 {
				t.Errorf("%s[%d] = %v (unpopulated)", s.Label, i, y)
			}
		}
	}
	for i := range simUniform.Y {
		// A slower global tier must cost latency, a faster cluster fabric
		// must save it, at every common load.
		if !(simSlow.Y[i] > simUniform.Y[i]) {
			t.Errorf("point %d: slow-ICN2 sim %v not above uniform %v", i, simSlow.Y[i], simUniform.Y[i])
		}
		if !(simFast.Y[i] < simUniform.Y[i]) {
			t.Errorf("point %d: fast-ICN1 sim %v not below uniform %v", i, simFast.Y[i], simUniform.Y[i])
		}
	}
	// The acceptance bar: the tier-indexed model tracks the simulator on
	// heterogeneous links about as well as on the homogeneous system
	// (compare repro's TestSteadyStateAgreement / TestRateHeterogeneityStudy).
	for ci := 0; ci < 3; ci++ {
		an, sim := series[2*ci], series[2*ci+1]
		for i := range an.Y {
			if math.IsNaN(an.Y[i]) || math.IsNaN(sim.Y[i]) {
				continue
			}
			if math.Abs(an.Y[i]-sim.Y[i]) > 0.25*sim.Y[i] {
				t.Errorf("%s point %d: analysis %v vs sim %v differ by >25%%",
					an.Label, i, an.Y[i], sim.Y[i])
			}
		}
	}
}

func TestTopologyCompareStudy(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.TopologyCompareStudy(tinyOrg(), units.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6 (analysis+sim per topology)", len(series))
	}
	for _, s := range series {
		for i, y := range s.Y {
			if math.IsNaN(y) || y <= 0 {
				t.Errorf("%s[%d] = %v (unpopulated)", s.Label, i, y)
			}
		}
	}
	// The non-tree interconnects must actually change the measurement: a
	// wiring bug that routes every configuration over the fat tree would
	// reproduce the fat-tree curve exactly.
	simTree, simJelly, simDragon := series[1], series[3], series[5]
	same := func(a, b plot.Series) bool {
		for i := range a.Y {
			if a.Y[i] != b.Y[i] {
				return false
			}
		}
		return true
	}
	if same(simTree, simJelly) {
		t.Error("jellyfish simulation identical to fat-tree simulation")
	}
	if same(simTree, simDragon) {
		t.Error("dragonfly-ICN2 simulation identical to fat-tree simulation")
	}
	// The acceptance bar: the route-distribution-indexed model tracks the
	// simulator on every topology in the steady-state region.
	for ci := range TopologyConfigs {
		an, sim := series[2*ci], series[2*ci+1]
		for i := range an.Y {
			if math.IsNaN(an.Y[i]) || math.IsNaN(sim.Y[i]) {
				continue
			}
			if math.Abs(an.Y[i]-sim.Y[i]) > 0.25*sim.Y[i] {
				t.Errorf("%s point %d: analysis %v vs sim %v differ by >25%%",
					an.Label, i, an.Y[i], sim.Y[i])
			}
		}
	}
}

func TestRoutingAblation(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.RoutingAblation(tinyOrg(), units.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, s := range series {
		for i, y := range s.Y {
			if math.IsNaN(y) || y <= 0 {
				t.Errorf("%s[%d] = %v", s.Label, i, y)
			}
		}
	}
}

func TestInterpretationAblation(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.InterpretationAblation(tinyOrg(), units.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	// The paper-literal model saturates within the calibrated model's
	// stability range, so its curve must end in NaNs; the grid's lower
	// half lies below that knee, so the curve must start with values.
	litNaN := 0
	for _, y := range series[1].Y {
		if math.IsNaN(y) {
			litNaN++
		}
	}
	if litNaN == 0 {
		t.Error("paper-literal curve never saturated inside the grid")
	}
	if y := series[1].Y[0]; math.IsNaN(y) || y <= 0 {
		t.Errorf("paper-literal curve starts at %v, want a finite latency", y)
	}
}

func TestRateHeterogeneityStudy(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.RateHeterogeneityStudy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	// Model and simulation should agree within 25% at these mild loads.
	for i := range series[0].Y {
		an, sim := series[0].Y[i], series[1].Y[i]
		if math.IsNaN(an) || math.IsNaN(sim) {
			continue
		}
		if math.Abs(an-sim) > 0.25*sim {
			t.Errorf("point %d: analysis %v vs sim %v differ by >25%%", i, an, sim)
		}
	}
}

func TestBaselineComparison(t *testing.T) {
	r := NewRunner(tinyScale())
	series, err := r.BaselineComparison(tinyOrg(), units.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	// The store-and-forward baseline must sit well above both the wormhole
	// model and the simulator at low load.
	if !(series[1].Y[0] > 1.5*series[0].Y[0]) {
		t.Errorf("baseline %v not well above wormhole model %v", series[1].Y[0], series[0].Y[0])
	}
	if !(series[1].Y[0] > 1.5*series[2].Y[0]) {
		t.Errorf("baseline %v not well above simulation %v", series[1].Y[0], series[2].Y[0])
	}
	// And the wormhole model must be closer to the simulation throughout
	// the steady-state region (past the knee the simulation diverges from
	// both models and the comparison is meaningless).
	for i := range series[0].Y {
		wm, sf, sim := series[0].Y[i], series[1].Y[i], series[2].Y[i]
		if math.IsNaN(wm) || math.IsNaN(sf) || sim > 3*series[2].Y[0] {
			continue
		}
		if math.Abs(wm-sim) >= math.Abs(sf-sim) {
			t.Errorf("point %d: wormhole model (%v) not closer to sim (%v) than baseline (%v)",
				i, wm, sim, sf)
		}
	}
}

func TestSaturationSummary(t *testing.T) {
	rows, err := SaturationSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		// The headline calibration result: the model's λ_sat lands within
		// 15% of the paper's plotted x-range for every panel.
		if r := row.ModelSat / row.PaperXMax; r < 0.85 || r > 1.15 {
			t.Errorf("%s: λ_sat/x-max = %v, want within [0.85, 1.15]", row.Panel, r)
		}
		if !(row.BaselineSat > row.ModelSat) {
			t.Errorf("%s: baseline saturation %v not beyond model %v",
				row.Panel, row.BaselineSat, row.ModelSat)
		}
	}
	out := FormatSaturationSummary(rows)
	for _, frag := range []string{"Fig3-left", "Fig4-right", "model λ_sat", "paper x-max"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

// sameCurves compares figures point by point, treating NaN (saturated
// analysis) as equal to NaN — which reflect.DeepEqual does not.
func sameCurves(a, b []Curve) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for ci := range a {
		if len(a[ci].Points) != len(b[ci].Points) {
			return false
		}
		for pi := range a[ci].Points {
			p, q := a[ci].Points[pi], b[ci].Points[pi]
			if !eq(p.Lambda, q.Lambda) || !eq(p.Analysis, q.Analysis) ||
				!eq(p.Simulation, q.Simulation) || !eq(p.SimStdDev, q.SimStdDev) ||
				p.AnalysisSaturated != q.AnalysisSaturated {
				return false
			}
		}
	}
	return true
}

func TestWorkersKnobDoesNotChangeResults(t *testing.T) {
	// Per-job deterministic seeding makes the figure independent of the
	// worker count: an explicit Workers knob, the GOMAXPROCS default and a
	// serial run must all produce identical numbers.
	var figs []Figure
	for _, workers := range []int{0, 1, 3} {
		r := NewRunner(tinyScale())
		r.Workers = workers
		fig, err := r.LatencyFigure("workers", "workers", tinyOrg(), 32, []int{256}, 4)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	for i := 1; i < len(figs); i++ {
		if !sameCurves(figs[0].Curves, figs[i].Curves) {
			t.Errorf("worker setting %d changed the figure:\n%+v\nvs\n%+v",
				i, figs[0].Curves, figs[i].Curves)
		}
	}
}

func TestRunnerCacheReused(t *testing.T) {
	// A cached runner re-executes nothing on the second identical figure.
	cache := &memCache{m: make(map[string]sweep.Outcome)}
	r := NewRunner(tinyScale())
	r.Cache = cache
	fig1, err := r.LatencyFigure("cached", "cached", tinyOrg(), 32, []int{256}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.m) == 0 {
		t.Fatal("runner did not populate its cache")
	}
	fig2, err := r.LatencyFigure("cached", "cached", tinyOrg(), 32, []int{256}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCurves(fig1.Curves, fig2.Curves) {
		t.Error("cache-hit figure differs from the original")
	}
}

func TestScalesAreSane(t *testing.T) {
	p, q := PaperScale(), QuickScale()
	if p.Warmup != 10000 || p.Measure != 100000 || p.Drain != 10000 {
		t.Errorf("PaperScale = %+v does not match §4", p)
	}
	if q.Measure >= p.Measure {
		t.Error("QuickScale not cheaper than PaperScale")
	}
}
