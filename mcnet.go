package mcnet

import (
	"context"
	"math"

	"mcnet/internal/analytic"
	"mcnet/internal/mcsim"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// Re-exported configuration types.
type (
	// Organization describes a heterogeneous multi-cluster system.
	Organization = system.Organization
	// ClusterSpec is one group of identically shaped clusters.
	ClusterSpec = system.ClusterSpec
	// System is a validated, materialized organization.
	System = system.System
	// Params holds the technology parameters (latencies, bandwidth) and the
	// message geometry (M flits of L_m bytes).
	Params = units.Params
	// LinkClass is one link technology (α_net, α_sw, β_net); TierParams
	// assigns classes per network tier (cluster ICN1/ECN1, global ICN2,
	// concentrator links) for link-technology heterogeneity.
	LinkClass  = units.LinkClass
	TierParams = units.TierParams
	// Model is the paper's analytical latency model.
	Model = analytic.Model
	// ModelOptions selects between interpretations of the paper's
	// ambiguous equations; DefaultModelOptions is the calibrated reading.
	ModelOptions = analytic.Options
	// ModelResult is the model's output at one offered traffic.
	ModelResult = analytic.Result
	// SimConfig parameterizes one simulation run.
	SimConfig = mcsim.Config
	// SimResult is the simulator's measured output.
	SimResult = mcsim.Result
)

// Re-exported constructors.
var (
	// Table1Org1 is the paper's first validated organization
	// (N=1120, C=32, m=8).
	Table1Org1 = system.Table1Org1
	// Table1Org2 is the paper's second validated organization
	// (N=544, C=16, m=4).
	Table1Org2 = system.Table1Org2
	// UniformOrg builds a homogeneous organization, the baseline a
	// heterogeneous one is compared against.
	UniformOrg = system.Uniform
	// ParseOrganization parses "m=8:12x1,16x2,4x3"-style specs (cluster
	// groups may carry @icn1=/@ecn1= link-class suffixes).
	ParseOrganization = system.ParseOrganization
	// ParseLinkClass parses "<α_net>/<α_sw>/<β_net>" link-class specs;
	// ParseTiers parses "+"-joined per-tier assignments like
	// "icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004".
	ParseLinkClass = units.ParseLinkClass
	ParseTiers     = units.ParseTiers
	// NewSystem materializes and validates an organization.
	NewSystem = system.New
	// DefaultParams returns the paper's §4 parameter set
	// (bandwidth 500 B/unit, α_net=0.02, α_sw=0.01, L_m=256, M=32).
	DefaultParams = units.Default
	// DefaultModelOptions is the calibrated model interpretation.
	DefaultModelOptions = analytic.DefaultOptions
	// PaperLiteralModelOptions is the literal reading (ablation A).
	PaperLiteralModelOptions = analytic.PaperLiteralOptions
	// Simulate runs the discrete-event simulator to completion.
	Simulate = mcsim.Run
	// ErrSaturated marks analytic operating points beyond stability.
	ErrSaturated = analytic.ErrSaturated
)

// NewModel builds the analytical model for an organization with the
// calibrated default options.
func NewModel(org Organization, par Params) (*Model, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	return analytic.New(sys, par, analytic.DefaultOptions())
}

// Analyze evaluates the analytical mean message latency (Eq. 36) at
// per-node offered traffic lambdaG. It returns ErrSaturated past the
// model's stability region.
func Analyze(org Organization, par Params, lambdaG float64) (float64, error) {
	m, err := NewModel(org, par)
	if err != nil {
		return 0, err
	}
	return m.MeanLatency(lambdaG)
}

// SaturationPoint returns the offered traffic at which the model first
// saturates (the knee the paper's figures stop at).
func SaturationPoint(org Organization, par Params) (float64, error) {
	m, err := NewModel(org, par)
	if err != nil {
		return 0, err
	}
	return m.SaturationPoint(1e-6, 1, 1e-4), nil
}

// Comparison pairs the model's prediction with a simulation measurement at
// one operating point.
type Comparison struct {
	LambdaG    float64
	Analysis   float64
	Simulation float64
	// RelativeError is |Analysis−Simulation|/Simulation, or NaN when there
	// is nothing to compare: the model saturated or the simulation measured
	// no positive latency.
	RelativeError float64
	// AnalysisSaturated reports that the model refused this load; Analysis
	// is +Inf in that case.
	AnalysisSaturated bool
}

// Compare evaluates both the model and a paper-methodology simulation
// (10k/100k/10k messages) at one operating point. The point is one job of a
// sweep, run on the sweep engine: the analysis comes from the process-wide
// model memo and the simulation runs with the given seed.
func Compare(org Organization, par Params, lambdaG float64, seed uint64) (Comparison, error) {
	spec := sweep.Spec{
		Name:     "compare",
		Orgs:     []string{system.Format(org)},
		Messages: []sweep.MessageGeometry{{Flits: par.MessageFlits, FlitBytes: par.FlitBytes}},
		Links:    []string{par.Tiers.String()},
		Loads:    sweep.Loads{Lambdas: []float64{lambdaG}},
		Tech:     &sweep.Tech{AlphaNet: par.AlphaNet, AlphaSw: par.AlphaSw, BetaNet: par.BetaNet},
	}
	cmp := Comparison{LambdaG: lambdaG, RelativeError: math.NaN()}
	jobs, err := sweep.Expand(spec)
	if err != nil {
		return cmp, err
	}
	jobs[0].SimSeed = seed
	var out sweep.MemorySink
	eng := sweep.Engine{Sinks: []sweep.Sink{&out}}
	if _, err := eng.RunJobs(context.Background(), spec, jobs); err != nil {
		return cmp, err
	}
	r := out.Results[0]
	cmp.Analysis, cmp.Simulation, cmp.AnalysisSaturated = float64(r.Analysis), float64(r.SimLatency), r.AnalysisSaturated
	if cmp.AnalysisSaturated {
		cmp.Analysis = math.Inf(1)
	}
	cmp.RelativeError = sweep.RelativeError(cmp.Analysis, cmp.Simulation)
	return cmp, nil
}
