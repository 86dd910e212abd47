// Package experiments regenerates the paper's evaluation artifacts — the
// Table 1 organizations and the four latency-vs-offered-traffic panels of
// Figures 3 and 4 — together with the ablations and extensions catalogued in
// DESIGN.md. Each experiment produces analysis and simulation series over
// the same traffic grid, ready for rendering by the plot package.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"mcnet/internal/plot"
	"mcnet/internal/stats"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/topo"
	"mcnet/internal/units"
)

// Scale controls the cost of the simulation side of an experiment.
type Scale struct {
	// Warmup, Measure and Drain are the phase message counts (paper §4:
	// 10000/100000/10000).
	Warmup, Measure, Drain int
	// Seed is the base RNG seed; every simulation job derives its own seed
	// from it and the job's identity hash (see internal/sweep).
	Seed uint64
	// Reps is the number of independent replications averaged per point
	// (the paper reports single runs; >1 adds error estimates).
	Reps int
}

// PaperScale reproduces the paper's §4 methodology exactly.
func PaperScale() Scale { return Scale{Warmup: 10000, Measure: 100000, Drain: 10000, Seed: 1, Reps: 1} }

// QuickScale is a ~10× cheaper setting for tests and benchmarks.
func QuickScale() Scale { return Scale{Warmup: 1000, Measure: 10000, Drain: 1000, Seed: 1, Reps: 1} }

// Point is one operating point of a latency curve.
type Point struct {
	Lambda float64
	// Analysis is the model's Eq. 36 value (NaN when the model is saturated
	// at this load — the curve simply ends, as in the paper's plots).
	Analysis float64
	// Simulation is the measured mean latency; SimStdDev is the standard
	// deviation across replications (0 for single runs).
	Simulation float64
	SimStdDev  float64
	// AnalysisSaturated marks loads past the model's stability region.
	AnalysisSaturated bool
}

// Curve is one (message geometry) line of a figure: analysis + simulation.
type Curve struct {
	Label     string
	FlitBytes int
	Points    []Point
}

// Figure is a regenerated evaluation panel.
type Figure struct {
	Name   string // e.g. "fig3-m32"
	Title  string
	Org    system.Organization
	MFlits int
	XMax   float64 // 1.02 × the latest model saturation point
	Curves []Curve
	Scale  Scale
}

// Runner carries the common knobs of all experiments. Every experiment's
// simulation grid runs as a sweep spec on the sweep engine, so worker
// bounds, deterministic per-job seeding and (optionally) result caching are
// inherited from that subsystem.
type Runner struct {
	Scale Scale
	// Workers bounds the simulation parallelism (0 = GOMAXPROCS), enforced
	// by the sweep engine's worker pool.
	Workers int
	// Cache, if non-nil, caches simulation outcomes across runs (see
	// sweep.NewDirCache); repeated figures then cost only the cache misses.
	Cache sweep.Cache
	// ExtraSinks, if non-nil, is consulted for every sweep spec an
	// experiment executes; the returned sinks receive that sweep's results
	// in job order alongside the internal in-memory collection. The
	// reproduction pipeline (internal/repro) uses it to persist each study's
	// raw sweep rows into the run directory.
	ExtraSinks func(spec sweep.Spec) []sweep.Sink
}

// NewRunner returns a Runner at the given measurement scale. Every study's
// model uses the calibrated options (analytic.DefaultOptions).
func NewRunner(scale Scale) Runner {
	return Runner{Scale: scale}
}

// simSpec builds a study's sweep at the runner's measurement scale: one
// organization and message geometry over the given load axis, with the
// calibrated model's latency attached to every result, so the studies read
// their model curves from the sweep engine's memo. Tier overrides carried
// by par become the spec's link axis, so a study handed heterogeneous
// technology simulates and models it too (studies that sweep links
// themselves overwrite Links afterwards).
func (r Runner) simSpec(name string, org system.Organization, par units.Params, loads sweep.Loads) sweep.Spec {
	spec := sweep.Spec{
		Name:     name,
		Orgs:     []string{system.Format(org)},
		Messages: []sweep.MessageGeometry{{Flits: par.MessageFlits, FlitBytes: par.FlitBytes}},
		Loads:    loads,
		Warmup:   r.Scale.Warmup, Measure: r.Scale.Measure, Drain: r.Scale.Drain,
		BaseSeed: r.Scale.Seed, Reps: r.Scale.Reps,
		Model: "calibrated",
		Tech:  &sweep.Tech{AlphaNet: par.AlphaNet, AlphaSw: par.AlphaSw, BetaNet: par.BetaNet},
	}
	if !par.Tiers.Homogeneous() {
		spec.Links = []string{par.Tiers.String()}
	}
	return spec
}

// runSweep executes a spec on the runner's engine and collects the results
// in job order.
func (r Runner) runSweep(spec sweep.Spec) ([]sweep.Result, error) {
	mem := &sweep.MemorySink{}
	sinks := []sweep.Sink{mem}
	if r.ExtraSinks != nil {
		sinks = append(sinks, r.ExtraSinks(spec)...)
	}
	eng := &sweep.Engine{Workers: r.Workers, Cache: r.Cache, Sinks: sinks}
	if _, err := eng.Run(spec); err != nil {
		return nil, err
	}
	return mem.Results, nil
}

// curves runs a study's sweep and folds its results into n curves of one
// Point per load: curve picks a job's curve, its load index the point. Each
// point carries the job's λ and model value and the mean and standard
// deviation of its replications' simulated latency; replications that
// delivered nothing (NaN latency) are skipped, and a point with no surviving
// replication has NaN simulation.
func (r Runner) curves(spec sweep.Spec, n int, curve func(sweep.Job) int) ([][]Point, error) {
	results, err := r.runSweep(spec)
	if err != nil {
		return nil, err
	}
	points := max(spec.Loads.Points, len(spec.Loads.Lambdas)) // one of them is set
	out := make([][]Point, n)
	accs := make([]stats.Running, n*points)
	for c := range out {
		out[c] = make([]Point, points)
	}
	for _, res := range results {
		c, li := curve(res.Job), res.Job.LoadIndex
		out[c][li] = Point{
			Lambda:            res.Job.Lambda,
			Analysis:          float64(res.Analysis),
			AnalysisSaturated: res.AnalysisSaturated,
		}
		if v := float64(res.SimLatency); !math.IsNaN(v) {
			accs[c*points+li].Add(v)
		}
	}
	for c := range out {
		for li := range out[c] {
			p, acc := &out[c][li], &accs[c*points+li]
			switch {
			case acc.Count() == 0:
				p.Simulation = math.NaN()
			case acc.Count() == 1:
				p.Simulation = acc.Mean()
			default:
				p.Simulation, p.SimStdDev = acc.Mean(), acc.StdDev()
			}
		}
	}
	return out, nil
}

// oneCurve is the curve selector of a study whose sweep has a single curve.
func oneCurve(sweep.Job) int { return 0 }

// line renders one side of a curve as a plot series over its loads.
func line(label string, pts []Point, y func(Point) float64) plot.Series {
	s := plot.Series{Label: label, X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		s.X[i], s.Y[i] = p.Lambda, y(p)
	}
	return s
}

func analysisOf(p Point) float64   { return p.Analysis }
func simulationOf(p Point) float64 { return p.Simulation }

// modelLine evaluates a model over a curve's loads (NaN where it saturates),
// for the curves the sweep's analysis column does not carry.
func modelLine(label string, pts []Point, meanLatency func(float64) (float64, error)) plot.Series {
	return line(label, pts, func(p Point) float64 {
		if v, err := meanLatency(p.Lambda); err == nil {
			return v
		}
		return math.NaN()
	})
}

// minSaturation is the earliest calibrated saturation point of org over a
// study's link and topology configurations: the scale of a load grid every
// configuration can share.
func minSaturation(org system.Organization, par units.Params, links, topos []string) (float64, error) {
	minSat := math.Inf(1)
	for _, lk := range links {
		tiers, err := units.ParseTiers(lk)
		if err != nil {
			return 0, err
		}
		p := par
		p.Tiers = tiers
		for _, axis := range topos {
			cl, gl, err := topo.ParseAxis(axis)
			if err != nil {
				return 0, err
			}
			sat, err := sweep.ModelFor("calibrated", system.Format(org), tiers.String(), topo.FormatAxis(cl, gl), p).SaturationPoint(1e-3)
			if err != nil {
				return 0, err
			}
			if math.IsInf(sat, 1) {
				return 0, fmt.Errorf("experiments: no saturation point for links %q, topology %q", lk, axis)
			}
			minSat = min(minSat, sat)
		}
	}
	return minSat, nil
}

// steadyGrid is points evenly spaced loads ending at frac × sat.
func steadyGrid(frac, sat float64, points int) []float64 {
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = frac * sat * float64(i+1) / float64(points)
	}
	return xs
}

// LatencyFigure regenerates one latency-vs-offered-traffic panel: for each
// flit size a model curve and a simulation curve over a common traffic grid
// whose right edge is set just past the latest model saturation point —
// mirroring how the paper chose its x-ranges (they end where the analysis
// saturates).
func (r Runner) LatencyFigure(name, title string, org system.Organization, mFlits int, flitBytes []int, points int) (Figure, error) {
	fig := Figure{
		Name: name, Title: title, Org: org, MFlits: mFlits,
		Scale: r.Scale,
	}
	// The figure's whole grid is one sweep: the message-geometry axis
	// carries the curves, the load axis the operating points.
	spec := r.simSpec(name, org, units.Default(), sweep.Loads{Points: points, MaxFraction: 1.02})
	spec.Messages = make([]sweep.MessageGeometry, len(flitBytes))
	for ci, lm := range flitBytes {
		spec.Messages[ci] = sweep.MessageGeometry{Flits: mFlits, FlitBytes: lm}
	}
	cs, err := r.curves(spec, len(flitBytes), func(j sweep.Job) int { return j.MsgIndex })
	if err != nil {
		return fig, err
	}
	for ci, lm := range flitBytes {
		fig.Curves = append(fig.Curves, Curve{Label: fmt.Sprintf("Lm=%d", lm), FlitBytes: lm, Points: cs[ci]})
		sat, err := sweep.ModelFor("calibrated", spec.Orgs[0], "", "", units.Default().WithMessage(mFlits, lm)).SaturationPoint(1e-3)
		if err != nil {
			return fig, err
		}
		if !math.IsInf(sat, 1) {
			fig.XMax = max(fig.XMax, 1.02*sat)
		}
	}
	return fig, nil
}

// Series converts the figure into plottable series: per curve, an analysis
// line and a simulation line sharing the x grid.
func (f Figure) Series() []plot.Series {
	var out []plot.Series
	markers := []rune{'a', 'o', 'A', 'O'}
	for ci, c := range f.Curves {
		an := line("analysis "+c.Label, c.Points, analysisOf)
		sim := line("simulation "+c.Label, c.Points, simulationOf)
		an.Marker, sim.Marker = markers[(2*ci)%len(markers)], markers[(2*ci+1)%len(markers)]
		out = append(out, an, sim)
	}
	return out
}

// Table1 regenerates the paper's Table 1: the two validated organizations
// with their derived quantities, verified against Eqs. 1–2.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1. System organizations for validation\n\n")
	for _, org := range []system.Organization{system.Table1Org1(), system.Table1Org2()} {
		b.WriteString(system.MustNew(org).Summary())
		b.WriteString("\n")
	}
	return b.String()
}

// TrafficPatternStudy (Extension 1) measures simulated latency under the
// uniform, hotspot and cluster-local patterns at a common traffic grid,
// with the model's uniform-traffic curve for reference. It quantifies how
// far the model's assumption 2 carries under non-uniform load.
func (r Runner) TrafficPatternStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	patterns := []struct{ label, spec string }{
		{"uniform", "uniform"},
		{"hotspot 5%", "hotspot:0.05"},
		{"cluster-local 60%", "cluster-local:0.6"},
	}
	spec := r.simSpec("traffic-patterns", org, par, sweep.Loads{Points: points, MaxFraction: 0.7})
	spec.Patterns = make([]string, len(patterns))
	for pi, p := range patterns {
		spec.Patterns[pi] = p.spec
	}
	cs, err := r.curves(spec, len(patterns), func(j sweep.Job) int { return j.PatternIndex })
	if err != nil {
		return nil, err
	}
	series := []plot.Series{line("analysis uniform", cs[0], analysisOf)}
	for pi, p := range patterns {
		series = append(series, line("sim "+p.label, cs[pi], simulationOf))
	}
	return series, nil
}

// WorkloadStudy (Extension 3) sweeps the burstiness × size-mix grid the
// paper names as future work: arrival processes (Poisson, on-off MMPP at two
// burstiness levels) crossed with message-length distributions (fixed M and
// a bimodal short/long mix with the same mean), against the Poisson/fixed-M
// analytic curve. Where the simulated curves pull away from the analysis is
// exactly where the model's assumptions 1 and 3 stop carrying.
func (r Runner) WorkloadStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	arrivals := []string{"poisson", "mmpp:16:32", "mmpp:64:64"}
	// The bimodal mix is chosen to preserve the mean length M=32
	// (0.2·128 + 0.8·8 = 32), isolating the variability effect.
	sizes := []string{"fixed", "bimodal:8:128:0.2"}
	spec := r.simSpec("workload-study", org, par, sweep.Loads{Points: points, MaxFraction: 0.7})
	spec.Arrivals = arrivals
	spec.Sizes = sizes
	cs, err := r.curves(spec, len(arrivals)*len(sizes), func(j sweep.Job) int {
		return j.ArrivalIndex*len(sizes) + j.SizeIndex
	})
	if err != nil {
		return nil, err
	}
	series := []plot.Series{line("analysis poisson/fixed", cs[0], analysisOf)}
	for ai, a := range arrivals {
		for si, d := range sizes {
			label := "sim " + a + "/" + strings.SplitN(d, ":", 2)[0]
			series = append(series, line(label, cs[ai*len(sizes)+si], simulationOf))
		}
	}
	return series, nil
}

// LinkHeterogeneityConfigs are the per-tier technology points of the
// link-heterogeneity study (units.ParseTiers syntax): the homogeneous §4
// technology, a slow campus backbone (ICN2 and concentrator links at double
// latency and half bandwidth), and a fast intra-cluster fabric.
var LinkHeterogeneityConfigs = []struct{ Label, Links string }{
	{"uniform", "uniform"},
	{"slow icn2", "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004"},
	{"fast icn1", "icn1=0.01/0.005/0.001"},
}

// LinkHeterogeneityStudy (Extension 4) opens the last heterogeneity
// dimension the paper names but does not evaluate: per-tier link technology.
// For each configuration it runs the tier-indexed model and the simulator
// over a common traffic grid (bounded by the slowest configuration's
// saturation), so the series pair off as analysis/simulation per
// configuration — the same model-vs-simulation reading as Figures 3–4,
// repeated per link technology.
func (r Runner) LinkHeterogeneityStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	configs := LinkHeterogeneityConfigs
	linksAxis := make([]string, len(configs))
	for ci, c := range configs {
		linksAxis[ci] = c.Links
	}
	minSat, err := minSaturation(org, par, linksAxis, []string{""})
	if err != nil {
		return nil, err
	}
	// Stay in the steady-state region, where the model is valid.
	spec := r.simSpec("link-hetero", org, par, sweep.Loads{Lambdas: steadyGrid(0.55, minSat, points)})
	spec.Links = linksAxis
	cs, err := r.curves(spec, len(configs), func(j sweep.Job) int { return j.LinksIndex })
	if err != nil {
		return nil, err
	}
	series := make([]plot.Series, 0, 2*len(configs))
	for ci, c := range configs {
		series = append(series, line("analysis "+c.Label, cs[ci], analysisOf), line("sim "+c.Label, cs[ci], simulationOf))
	}
	return series, nil
}

// TopologyConfigs are the equal-switch-budget interconnect points of the
// topology comparison study (topo.ParseAxis syntax): the paper's fat trees,
// a seeded random-regular (Jellyfish-style) ICN1 over the same switch and
// node budget, and a Dragonfly-style global ICN2.
var TopologyConfigs = []struct{ Label, Axis string }{
	{"fat-tree", ""},
	{"jellyfish", "jellyfish"},
	{"dragonfly icn2", "fattree+dragonfly"},
}

// topologyAxis is the sweep topology axis of TopologyConfigs.
func topologyAxis() []string {
	axis := make([]string, len(TopologyConfigs))
	for ci, c := range TopologyConfigs {
		axis[ci] = c.Axis
	}
	return axis
}

// TopologyCompareStudy (Extension 5) compares interconnect topologies at an
// equal switch budget: for each configuration it runs the
// route-distribution-indexed model and the simulator over a common traffic
// grid (bounded by the earliest saturation across configurations), so the
// series pair off as analysis/simulation per topology — the same
// model-vs-simulation reading as Figures 3–4, repeated per interconnect.
func (r Runner) TopologyCompareStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	topos := topologyAxis()
	minSat, err := minSaturation(org, par, []string{""}, topos)
	if err != nil {
		return nil, err
	}
	// Stay in the steady-state region, where the model is valid.
	spec := r.simSpec("topology-compare", org, par, sweep.Loads{Lambdas: steadyGrid(0.55, minSat, points)})
	spec.Topologies = topos
	cs, err := r.curves(spec, len(TopologyConfigs), func(j sweep.Job) int { return j.TopoIndex })
	if err != nil {
		return nil, err
	}
	series := make([]plot.Series, 0, 2*len(TopologyConfigs))
	for ci, c := range TopologyConfigs {
		series = append(series, line("analysis "+c.Label, cs[ci], analysisOf), line("sim "+c.Label, cs[ci], simulationOf))
	}
	return series, nil
}

// RoutingAblation (Ablation B) contrasts balanced destination-digit ascent
// with oblivious random ascent in the simulator, quantifying the switch
// contention the paper's routing choice avoids.
func (r Runner) RoutingAblation(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	modes := []string{"balanced", "random-up"}
	spec := r.simSpec("routing-ablation", org, par, sweep.Loads{Points: points, MaxFraction: 0.85})
	spec.Routing = modes
	cs, err := r.curves(spec, len(modes), func(j sweep.Job) int { return j.RoutingIndex })
	if err != nil {
		return nil, err
	}
	series := make([]plot.Series, len(modes))
	for mi, mode := range modes {
		series[mi] = line("sim "+mode, cs[mi], simulationOf)
	}
	return series, nil
}

// InterpretationAblation (Ablation A) plots the calibrated model, the
// paper-literal model and the simulation on one grid, documenting why the
// calibrated reading was chosen (see DESIGN.md §3). The paper-literal model
// saturates far earlier than the calibrated one (ten times earlier on
// Org1), so the grid has two parts: its lower half steps up to 0.9 of the
// paper-literal saturation, and its upper half on to the calibrated
// saturation. Each model curve then has points below its own knee.
func (r Runner) InterpretationAblation(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	calSat, err := minSaturation(org, par, []string{par.Tiers.String()}, []string{""})
	if err != nil {
		return nil, err
	}
	literal := sweep.ModelFor("paper-literal", system.Format(org), par.Tiers.String(), "", par)
	litSat, err := literal.SaturationPoint(1e-3)
	if err != nil {
		return nil, err
	}
	if !(litSat < calSat) {
		return nil, fmt.Errorf("experiments: paper-literal saturation %g is not below the calibrated %g", litSat, calSat)
	}
	lo := points / 2
	lambdas := steadyGrid(0.9, litSat, lo)
	for i := 1; i <= points-lo; i++ {
		lambdas = append(lambdas, litSat+(calSat-litSat)*float64(i)/float64(points-lo))
	}
	spec := r.simSpec("interpretation-ablation", org, par, sweep.Loads{Lambdas: lambdas})
	cs, err := r.curves(spec, 1, oneCurve)
	if err != nil {
		return nil, err
	}
	return []plot.Series{
		line("model calibrated", cs[0], analysisOf),
		modelLine("model paper-literal", cs[0], literal.MeanLatency),
		line("simulation", cs[0], simulationOf),
	}, nil
}

// RateHeterogeneityStudy (Extension 2) compares model and simulation on an
// organization whose clusters inject at different rates, the processor-
// power heterogeneity dimension from the authors' companion work [24].
func (r Runner) RateHeterogeneityStudy(points int) ([]plot.Series, error) {
	org := system.Organization{
		Name:  "rate-hetero (N=96, C=8, m=4)",
		Ports: 4,
		Specs: []system.ClusterSpec{
			{Count: 4, Levels: 2, RateFactor: 2}, // "fast" clusters
			{Count: 4, Levels: 2, RateFactor: 1},
		},
	}
	// Stay in the steady-state region, where the model is valid.
	spec := r.simSpec("rate-hetero", org, units.Default(), sweep.Loads{Points: points, MaxFraction: 0.5})
	cs, err := r.curves(spec, 1, oneCurve)
	if err != nil {
		return nil, err
	}
	return []plot.Series{line("analysis", cs[0], analysisOf), line("simulation", cs[0], simulationOf)}, nil
}
