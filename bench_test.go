// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4), plus the ablations and extension studies from DESIGN.md. Each
// figure benchmark runs the full analysis+simulation sweep at a reduced
// simulation scale and reports the steady-state model error as a metric;
// the full paper-scale regeneration is `mcrepro` (`make paper`), which
// records its results with a gated verdict.
package mcnet

import (
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/experiments"
	"mcnet/internal/mcsim"
	"mcnet/internal/repro"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// benchScale keeps one figure sweep around a second.
func benchScale() experiments.Scale {
	return experiments.Scale{Warmup: 500, Measure: 5000, Drain: 500, Seed: 1, Reps: 1}
}

// BenchmarkTable1 regenerates the paper's Table 1 (system organizations).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); len(out) == 0 {
			b.Fatal("empty Table 1")
		}
	}
}

// benchFigure runs one manifest latency panel per iteration and reports the
// worst declared pair's steady-state mean relative error of the model
// against the simulator, and the figure's x-axis edge (1.02 × the latest
// model saturation point, the right end of its load grid).
func benchFigure(b *testing.B, name string) {
	b.Helper()
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("manifest is missing %q", name)
	}
	r := experiments.NewRunner(benchScale())
	var fig experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = e.Figure(r, e.Points(0))
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := math.NaN()
	for _, pa := range repro.AgreeAll(e, fig.Series(), 0) {
		if v := float64(pa.MeanRelErr); math.IsNaN(worst) || v > worst {
			worst = v
		}
	}
	b.ReportMetric(100*worst, "steady%err")
	b.ReportMetric(fig.XMax, "λ_xmax")
}

// BenchmarkFig3_M32 regenerates Fig. 3 (left): Org1, M=32, Lm ∈ {256,512}.
func BenchmarkFig3_M32(b *testing.B) { benchFigure(b, "fig3-m32") }

// BenchmarkFig3_M64 regenerates Fig. 3 (right): Org1, M=64.
func BenchmarkFig3_M64(b *testing.B) { benchFigure(b, "fig3-m64") }

// BenchmarkFig4_M32 regenerates Fig. 4 (left): Org2, M=32.
func BenchmarkFig4_M32(b *testing.B) { benchFigure(b, "fig4-m32") }

// BenchmarkFig4_M64 regenerates Fig. 4 (right): Org2, M=64.
func BenchmarkFig4_M64(b *testing.B) { benchFigure(b, "fig4-m64") }

// BenchmarkAblationICN2Norm contrasts the calibrated and paper-literal
// model interpretations against the simulator (Ablation A).
func BenchmarkAblationICN2Norm(b *testing.B) {
	r := experiments.NewRunner(benchScale())
	for i := 0; i < b.N; i++ {
		if _, err := r.InterpretationAblation(system.Table1Org1(), units.Default(), 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRouting contrasts balanced and random-up ascent in the
// simulator (Ablation B).
func BenchmarkAblationRouting(b *testing.B) {
	r := experiments.NewRunner(benchScale())
	for i := 0; i < b.N; i++ {
		if _, err := r.RoutingAblation(system.Table1Org2(), units.Default(), 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficPatterns runs the non-uniform-traffic extension study.
func BenchmarkTrafficPatterns(b *testing.B) {
	r := experiments.NewRunner(benchScale())
	for i := 0; i < b.N; i++ {
		if _, err := r.TrafficPatternStudy(system.Table1Org2(), units.Default(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRateHeterogeneity runs the injection-rate heterogeneity
// extension study.
func BenchmarkRateHeterogeneity(b *testing.B) {
	r := experiments.NewRunner(benchScale())
	for i := 0; i < b.N; i++ {
		if _, err := r.RateHeterogeneityStudy(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison contrasts the wormhole-aware model with the
// store-and-forward M/M/1 baseline against the simulator.
func BenchmarkBaselineComparison(b *testing.B) {
	r := experiments.NewRunner(benchScale())
	for i := 0; i < b.N; i++ {
		if _, err := r.BaselineComparison(system.Table1Org2(), units.Default(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaturationSummary regenerates the λ_sat-vs-paper-x-range table.
func BenchmarkSaturationSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SaturationSummary()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("unexpected summary size")
		}
	}
}

// BenchmarkModelEvaluate measures the cost of one full model evaluation on
// the larger Table 1 organization (all clusters, all destination pairs).
func BenchmarkModelEvaluate(b *testing.B) {
	m, err := analytic.New(system.MustNew(system.Table1Org1()), units.Default(), analytic.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(2e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (events/sec) on
// Org1 at a moderate load.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := mcsim.Run(mcsim.Config{
			Org: system.Table1Org1(), Par: units.Default(), LambdaG: 2e-4,
			Warmup: 200, Measure: 5000, Drain: 200, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
