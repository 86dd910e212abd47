// Package sweep is the parameter-sweep orchestration engine: it expands a
// declarative Spec — axes over system organizations, message geometry,
// traffic pattern, routing policy, link technology (per-tier classes),
// workload (arrival process and message-length distribution), offered load
// and replication seeds — into a deterministic list of Jobs, executes them
// on a bounded worker pool, and streams the results to CSV/JSONL sinks in
// expansion order.
//
// The paper's evaluation (Figures 3–4, the ablations, the heterogeneity
// extensions) is exactly such a grid, and the experiments package builds its
// figures on top of this engine. The engine is also exposed directly through
// cmd/mcsweep, which turns a JSON spec file into a results directory.
//
// Three properties make large sweeps practical:
//
//   - Determinism: expansion order is fixed, every job derives its simulator
//     seed from the spec's base seed and the job's own identity hash, and
//     results are emitted to sinks in job order regardless of which worker
//     finishes first. The same spec therefore produces byte-identical CSV
//     and JSONL output on every run, at any worker count.
//
//   - Caching: each job's identity (organization, geometry, pattern, routing,
//     load, measurement phases, technology parameters, seed) is content-
//     hashed, and simulation outcomes are stored in a disk cache keyed by
//     that hash. Interrupted or repeated sweeps re-execute only the missing
//     jobs; a completed sweep resumes with 100% cache hits.
//
//   - Bounded memory: results stream to sinks as soon as their turn in the
//     emission order comes; only out-of-order stragglers are buffered.
package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mcnet/internal/analytic"
	"mcnet/internal/mcsim"
	"mcnet/internal/routing"
	"mcnet/internal/system"
	"mcnet/internal/topo"
	"mcnet/internal/traffic"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// MessageGeometry is one point of the message-geometry axis: M flits of
// FlitBytes (L_m) bytes each.
type MessageGeometry struct {
	Flits     int `json:"flits"`
	FlitBytes int `json:"flit_bytes"`
}

// Loads describes the offered-traffic axis. Either Lambdas lists absolute
// per-node rates shared by every organization, or {Points, MaxFraction}
// describes a per-organization grid of Points evenly spaced loads ending at
// MaxFraction × the organization's analytic saturation point (maximized over
// the message-geometry axis, so all of an organization's curves share one
// grid, as the paper's figures do).
type Loads struct {
	Lambdas     []float64 `json:"lambdas,omitempty"`
	Points      int       `json:"points,omitempty"`
	MaxFraction float64   `json:"max_fraction,omitempty"`
}

// Tech overrides the technology parameters of units.Default (α_net, α_sw,
// β_net). Message geometry is a separate axis, not part of Tech.
type Tech struct {
	AlphaNet float64 `json:"alpha_net"`
	AlphaSw  float64 `json:"alpha_sw"`
	BetaNet  float64 `json:"beta_net"`
}

// Spec is a declarative description of a parameter sweep. Every axis slice
// is a cross-product dimension; the expansion order is
// org → message → pattern → routing → load → rep.
type Spec struct {
	// Name labels the sweep; output files are derived from it.
	Name string `json:"name"`
	// Orgs are organization specs in system.ParseOrganization syntax
	// ("m=8:12x1,16x2,4x3") or the named shortcuts ("org1", "org2").
	Orgs []string `json:"orgs"`
	// Messages is the message-geometry axis (default: the paper's M=32,
	// L_m=256).
	Messages []MessageGeometry `json:"messages,omitempty"`
	// Patterns is the traffic-pattern axis: "uniform", "hotspot:<frac>"
	// (fraction of traffic to node 0) or "cluster-local:<frac>" (probability
	// a message stays in its source cluster). Default: ["uniform"].
	Patterns []string `json:"patterns,omitempty"`
	// Routing is the routing-policy axis: "balanced" or "random-up".
	// Default: ["balanced"].
	Routing []string `json:"routing,omitempty"`
	// Arrivals is the arrival-process axis: "poisson", "deterministic" or
	// "mmpp:<peak>:<burst>" (see workload.ParseArrival). Default:
	// ["poisson"], the paper's assumption 1.
	Arrivals []string `json:"arrivals,omitempty"`
	// Sizes is the message-length distribution axis: "fixed",
	// "bimodal:<short>:<long>:<plong>" or "geometric:<mean>" (see
	// workload.ParseSize); the message-geometry axis supplies the base M.
	// Default: ["fixed"], the paper's assumption 3.
	Sizes []string `json:"sizes,omitempty"`
	// Links is the link-heterogeneity axis: per-tier technology overrides in
	// units.ParseTiers syntax, e.g. "icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004".
	// "" (or "uniform") is the homogeneous technology of Tech/units.Default.
	// Default: ["uniform"]. Per-cluster ICN1/ECN1 heterogeneity rides in the
	// organization axis instead ("m=4:2x2@ecn1=.../...,2x3").
	Links []string `json:"links,omitempty"`
	// Topologies is the topology axis: "<cluster>[+<global>]" in
	// topo.ParseAxis syntax, e.g. "jellyfish", "jellyfish.s7+dragonfly" or
	// "fattree+dragonfly". A non-default cluster part replaces every group's
	// ICN1 topology and a non-default global part replaces the ICN2
	// interconnect, at the organization's switch budget. "" (or "fattree")
	// is the default m-port n-tree everywhere. Default: [""].
	Topologies []string `json:"topologies,omitempty"`
	// Loads is the offered-traffic axis.
	Loads Loads `json:"loads"`
	// Warmup, Measure and Drain are the simulation phase message counts
	// (default: the paper's 10000/100000/10000).
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
	Drain   int `json:"drain,omitempty"`
	// BaseSeed seeds the whole sweep (default 1); each job's simulator seed
	// is derived from it and the job's identity hash, so every job gets an
	// independent, reproducible random stream.
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// Reps is the number of independent replications per grid point
	// (default 1); replication r is a distinct job with its own seed.
	Reps int `json:"reps,omitempty"`
	// Model selects the analytic curve attached to each result:
	// "calibrated" (default), "paper-literal", or "none" to skip analysis.
	// The simulation outcome (and its cache key) never depends on it.
	Model string `json:"model,omitempty"`
	// Telemetry enables the simulator's per-tier contention instrument for
	// every job: outcomes carry a TelemetrySummary and telemetry-aware sinks
	// append the CSVTelemetryColumns. Like Model it is not part of the job
	// identity — the measurements are bit-identical either way — so cached
	// outcomes, seeds and golden fixtures are unaffected.
	Telemetry bool `json:"telemetry,omitempty"`
	// Tech optionally overrides the technology parameters (default: the
	// paper's §4 values).
	Tech *Tech `json:"tech,omitempty"`
}

// Normalized returns a copy of the spec with all defaults filled in.
func (s Spec) Normalized() Spec {
	if len(s.Messages) == 0 {
		d := units.Default()
		s.Messages = []MessageGeometry{{Flits: d.MessageFlits, FlitBytes: d.FlitBytes}}
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []string{"uniform"}
	}
	if len(s.Routing) == 0 {
		s.Routing = []string{routing.Balanced.String()}
	}
	if len(s.Arrivals) == 0 {
		s.Arrivals = []string{workload.Poisson{}.Name()}
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []string{workload.Fixed{}.Name()}
	}
	if len(s.Links) == 0 {
		s.Links = []string{"uniform"}
	}
	if len(s.Topologies) == 0 {
		s.Topologies = []string{""}
	}
	if s.Loads.MaxFraction == 0 {
		s.Loads.MaxFraction = 1.0
	}
	if s.Warmup == 0 && s.Measure == 0 && s.Drain == 0 {
		s.Warmup, s.Measure, s.Drain = 10000, 100000, 10000
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	if s.Reps == 0 {
		s.Reps = 1
	}
	if s.Model == "" {
		s.Model = "calibrated"
	}
	return s
}

// Validate reports the first structural problem with the (normalized) spec.
func (s Spec) Validate() error {
	if len(s.Orgs) == 0 {
		return fmt.Errorf("sweep: spec %q: no organizations", s.Name)
	}
	for _, o := range s.Orgs {
		org, err := system.ParseOrganization(o)
		if err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
		if _, err := system.New(org); err != nil {
			return fmt.Errorf("sweep: spec %q: org %q: %v", s.Name, o, err)
		}
	}
	if len(s.Messages) == 0 {
		return fmt.Errorf("sweep: spec %q: no message geometries (Normalized fills the default)", s.Name)
	}
	for _, m := range s.Messages {
		if m.Flits <= 0 || m.FlitBytes <= 0 {
			return fmt.Errorf("sweep: spec %q: bad message geometry %+v", s.Name, m)
		}
	}
	for _, p := range s.Patterns {
		if _, err := ParsePattern(p); err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
	}
	for _, r := range s.Routing {
		if _, err := ParseRouting(r); err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
	}
	for _, a := range s.Arrivals {
		if _, err := workload.ParseArrival(a); err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
	}
	for _, d := range s.Sizes {
		if _, err := workload.ParseSize(d); err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
	}
	for _, l := range s.Links {
		if _, err := units.ParseTiers(l); err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
	}
	for _, t := range s.Topologies {
		if _, _, err := topo.ParseAxis(t); err != nil {
			return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
		}
	}
	if len(s.Loads.Lambdas) == 0 && s.Loads.Points <= 0 {
		return fmt.Errorf("sweep: spec %q: loads need either lambdas or points", s.Name)
	}
	for _, l := range s.Loads.Lambdas {
		if !(l > 0) {
			return fmt.Errorf("sweep: spec %q: non-positive load %v", s.Name, l)
		}
	}
	if err := mcsim.CheckPhases(s.Warmup, s.Measure, s.Drain); err != nil {
		return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
	}
	if s.Reps < 0 {
		return fmt.Errorf("sweep: spec %q: negative reps %d", s.Name, s.Reps)
	}
	if _, err := ModelOptions(s.Model); err != nil {
		return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
	}
	par, err := s.params(s.Messages[0], "")
	if err != nil {
		return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
	}
	if err := par.Validate(); err != nil {
		return fmt.Errorf("sweep: spec %q: %v", s.Name, err)
	}
	return nil
}

// HasLinkAxis reports whether the spec sweeps link technology beyond the
// homogeneous default; sinks use it to decide whether the links column
// carries information.
func (s Spec) HasLinkAxis() bool {
	for _, spec := range s.Links {
		if t, err := units.ParseTiers(spec); err == nil && !t.Homogeneous() {
			return true
		}
	}
	return false
}

// HasTopologyAxis reports whether the spec sweeps topology beyond the
// default fat tree; sinks use it to decide whether the topology column
// carries information.
func (s Spec) HasTopologyAxis() bool {
	for _, spec := range s.Topologies {
		if cl, gl, err := topo.ParseAxis(spec); err == nil && topo.FormatAxis(cl, gl) != "" {
			return true
		}
	}
	return false
}

// HasWorkloadAxes reports whether the spec sweeps beyond the paper's default
// workload (Poisson arrivals, fixed-length messages); sinks use it to decide
// whether the workload columns carry information.
func (s Spec) HasWorkloadAxes() bool {
	for _, spec := range s.Arrivals {
		if a, err := workload.ParseArrival(spec); err == nil && a.Name() != (workload.Poisson{}).Name() {
			return true
		}
	}
	for _, spec := range s.Sizes {
		if d, err := workload.ParseSize(spec); err == nil && d.Name() != (workload.Fixed{}).Name() {
			return true
		}
	}
	return false
}

// params resolves the technology parameters for one message geometry and one
// link-heterogeneity axis value (the canonical tier spec, "" = homogeneous).
func (s Spec) params(m MessageGeometry, links string) (units.Params, error) {
	par := units.Default()
	if s.Tech != nil {
		par.AlphaNet, par.AlphaSw, par.BetaNet = s.Tech.AlphaNet, s.Tech.AlphaSw, s.Tech.BetaNet
	}
	tiers, err := units.ParseTiers(links)
	if err != nil {
		return par, err
	}
	par.Tiers = tiers
	return par.WithMessage(m.Flits, m.FlitBytes), nil
}

// ParsePattern resolves a traffic-pattern spec string to a factory over the
// materialized system. Recognized forms: "uniform", "hotspot:<frac>",
// "cluster-local:<frac>".
func ParsePattern(spec string) (func(*system.System) traffic.Pattern, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	frac := func() (float64, error) {
		if !hasArg {
			return 0, fmt.Errorf("sweep: pattern %q needs a :<fraction> argument", spec)
		}
		f, err := strconv.ParseFloat(arg, 64)
		if err != nil || f < 0 || f > 1 {
			return 0, fmt.Errorf("sweep: pattern %q: fraction must be in [0,1]", spec)
		}
		return f, nil
	}
	switch name {
	case "uniform":
		if hasArg {
			return nil, fmt.Errorf("sweep: pattern %q takes no argument", spec)
		}
		// nil selects the simulator's default (uniform) pattern.
		return nil, nil
	case "hotspot":
		f, err := frac()
		if err != nil {
			return nil, err
		}
		return func(sys *system.System) traffic.Pattern {
			return traffic.Hotspot{N: sys.TotalNodes(), Hot: 0, Fraction: f}
		}, nil
	case "cluster-local":
		f, err := frac()
		if err != nil {
			return nil, err
		}
		return func(sys *system.System) traffic.Pattern {
			return traffic.ClusterLocal{Sys: sys, PLocal: f}
		}, nil
	}
	return nil, fmt.Errorf("sweep: unknown pattern %q", spec)
}

// ParseRouting resolves a routing-policy name to a simulator mode. It
// delegates to routing.ParseMode, the single source of truth for the mode
// grammar.
func ParseRouting(spec string) (routing.Mode, error) {
	m, err := routing.ParseMode(spec)
	if err != nil {
		return 0, fmt.Errorf("sweep: unknown routing policy %q", spec)
	}
	return m, nil
}

// ModelOptions resolves a model preset name. The empty name and "calibrated"
// select the calibrated defaults; "none" (analysis skipped) returns the zero
// Options and no error.
func ModelOptions(name string) (analytic.Options, error) {
	switch name {
	case "", "calibrated":
		return analytic.DefaultOptions(), nil
	case "paper-literal":
		return analytic.PaperLiteralOptions(), nil
	case "none":
		return analytic.Options{}, nil
	}
	return analytic.Options{}, fmt.Errorf("sweep: unknown model preset %q", name)
}

// Float is a float64 whose JSON encoding round-trips NaN (as null) exactly —
// simulation and analysis latencies are NaN at saturated points, which
// encoding/json refuses to marshal.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// RelativeError is the model-vs-simulation agreement at one operating
// point, |analysis−simulation|/simulation. It is NaN when there is nothing
// to compare: the model saturated (analysis is not finite) or the
// simulation measured no positive latency.
func RelativeError(analysis, simulation float64) float64 {
	if math.IsNaN(analysis) || math.IsInf(analysis, 0) || !(simulation > 0) {
		return math.NaN()
	}
	return math.Abs(analysis-simulation) / simulation
}
