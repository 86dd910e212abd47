// Package core is the canonical home of the paper's primary contribution —
// the analytical latency model for heterogeneous multi-cluster systems — as
// required by the repository layout. The implementation lives in package
// analytic; this package re-exports its API so that "the core of the
// reproduction" is a single import path.
package core

import "mcnet/internal/analytic"

// Re-exported types of the analytical model.
type (
	// Model evaluates the paper's latency equations for one system.
	Model = analytic.Model
	// Options selects between interpretations of ambiguous equations.
	Options = analytic.Options
	// Result is the model output for one offered traffic.
	Result = analytic.Result
	// ClusterResult is the per-source-cluster breakdown.
	ClusterResult = analytic.ClusterResult
)

// Re-exported constructors and constants.
var (
	// New builds a model from a system and parameters.
	New = analytic.New
	// DefaultOptions is the calibrated interpretation.
	DefaultOptions = analytic.DefaultOptions
	// PaperLiteralOptions is the literal reading, for the ablation.
	PaperLiteralOptions = analytic.PaperLiteralOptions
	// ErrSaturated marks operating points beyond the stability region.
	ErrSaturated = analytic.ErrSaturated
)
