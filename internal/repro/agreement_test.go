package repro

import (
	"math"
	"strings"
	"testing"

	"mcnet/internal/experiments"
	"mcnet/internal/plot"
	"mcnet/internal/system"
)

func pair() experiments.Pair {
	return experiments.Pair{Analysis: "analysis", Simulation: "simulation"}
}

func TestAgreePerfectMatch(t *testing.T) {
	s := []plot.Series{
		{Label: "analysis", X: []float64{1, 2, 3}, Y: []float64{10, 20, 30}},
		{Label: "simulation", X: []float64{1, 2, 3}, Y: []float64{10, 20, 30}},
	}
	pa := Agree(s, pair(), 0.25)
	if !pa.Pass || pa.Points != 3 || float64(pa.MeanRelErr) != 0 || float64(pa.MaxRelErr) != 0 {
		t.Fatalf("got %+v, want 3 points, zero error, pass", pa)
	}
}

func TestAgreeToleranceBoundary(t *testing.T) {
	s := []plot.Series{
		{Label: "analysis", X: []float64{1}, Y: []float64{12}},
		{Label: "simulation", X: []float64{1}, Y: []float64{10}},
	}
	if pa := Agree(s, pair(), 0.25); !pa.Pass {
		t.Errorf("20%% error vs 25%% tolerance: %+v, want pass", pa)
	}
	if pa := Agree(s, pair(), 0.1); pa.Pass {
		t.Errorf("20%% error vs 10%% tolerance: %+v, want fail", pa)
	} else if !strings.Contains(pa.Reason, "exceeds tolerance") {
		t.Errorf("reason = %q, want an exceeds-tolerance message", pa.Reason)
	}
}

// TestAgreeSteadyStateRegion: saturated points — NaN analysis, or simulated
// latency beyond 3× the low-load baseline — are excluded, and the
// saturation onsets are reported.
func TestAgreeSteadyStateRegion(t *testing.T) {
	nan := math.NaN()
	s := []plot.Series{
		{Label: "analysis", X: []float64{1, 2, 3, 4}, Y: []float64{10, 11, nan, nan}},
		{Label: "simulation", X: []float64{1, 2, 3, 4}, Y: []float64{10, 12, 500, 900}},
	}
	pa := Agree(s, pair(), 0.25)
	if pa.Points != 2 {
		t.Fatalf("points = %d, want 2 (saturated tail excluded)", pa.Points)
	}
	if !pa.Pass {
		t.Errorf("pa = %+v, want pass", pa)
	}
	if got := float64(pa.AnalysisSatLambda); got != 3 {
		t.Errorf("analysis saturation onset = %g, want 3", got)
	}
	if got := float64(pa.SimSatLambda); got != 3 {
		t.Errorf("simulation saturation onset = %g, want 3", got)
	}
	if got := float64(pa.SatDelta); got != 0 {
		t.Errorf("saturation delta = %g, want 0", got)
	}
}

func TestAgreeMissingSeries(t *testing.T) {
	s := []plot.Series{{Label: "analysis", X: []float64{1}, Y: []float64{1}}}
	pa := Agree(s, pair(), 0.25)
	if pa.Pass || !strings.Contains(pa.Reason, "missing") {
		t.Errorf("got %+v, want failure naming the missing series", pa)
	}
}

func TestAgreeNoUsablePoints(t *testing.T) {
	nan := math.NaN()
	s := []plot.Series{
		{Label: "analysis", X: []float64{1, 2}, Y: []float64{nan, nan}},
		{Label: "simulation", X: []float64{1, 2}, Y: []float64{5, 6}},
	}
	pa := Agree(s, pair(), 0.25)
	if pa.Pass || pa.Reason == "" {
		t.Errorf("got %+v, want failure with a reason", pa)
	}
}

// TestSteadyStateAgreement: in the steady-state region the model must track
// the simulator — the paper's headline claim — to ≤ 20% mean relative error
// on a small heterogeneous system.
func TestSteadyStateAgreement(t *testing.T) {
	r := experiments.NewRunner(experiments.Scale{Warmup: 300, Measure: 3000, Drain: 300, Seed: 1, Reps: 1})
	org := system.Organization{
		Name:  "tiny",
		Ports: 4,
		Specs: []system.ClusterSpec{{Count: 2, Levels: 1}, {Count: 2, Levels: 2}},
	}
	fig, err := r.LatencyFigure("agree", "agreement", org, 32, []int{256}, 6)
	if err != nil {
		t.Fatal(err)
	}
	pa := Agree(fig.Series(), experiments.Pair{Analysis: "analysis Lm=256", Simulation: "simulation Lm=256"}, 0.20)
	if !pa.Pass {
		t.Errorf("steady-state agreement %+v, want mean relative error ≤ 0.20", pa)
	}
}

func TestAgreeAllToleranceResolution(t *testing.T) {
	e := experiments.Entry{
		Gated: true, Pairs: []experiments.Pair{pair()},
	}
	s := []plot.Series{
		{Label: "analysis", X: []float64{1}, Y: []float64{12}},
		{Label: "simulation", X: []float64{1}, Y: []float64{10}},
	}
	// No entry tolerance → DefaultTolerance (25%) → 20% error passes.
	if pas := AgreeAll(e, s, 0); len(pas) != 1 || !pas[0].Pass {
		t.Errorf("default tolerance: %+v, want pass", pas)
	}
	// Override tightens the gate.
	if pas := AgreeAll(e, s, 0.1); pas[0].Pass {
		t.Errorf("0.1 override: %+v, want fail", pas)
	}
	// Entry tolerance respected when no override.
	e.Tolerance = 0.05
	if pas := AgreeAll(e, s, 0); pas[0].Pass {
		t.Errorf("entry tolerance 0.05: %+v, want fail", pas)
	}
}
