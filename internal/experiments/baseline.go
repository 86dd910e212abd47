package experiments

import (
	"fmt"
	"strings"

	"mcnet/internal/analytic"
	"mcnet/internal/plot"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// BaselineComparison contrasts three latency estimates on one traffic grid:
// the paper's wormhole-aware model, the classical store-and-forward M/M/1
// baseline, and the simulator (ground truth). It quantifies the accuracy
// the wormhole-aware analysis buys — the implicit comparison behind the
// paper's related-work discussion.
func (r Runner) BaselineComparison(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	baseline, err := analytic.NewBaseline(sys, par)
	if err != nil {
		return nil, err
	}
	spec := r.simSpec("baseline", org, par, sweep.Loads{Points: points, MaxFraction: 0.9})
	cs, err := r.curves(spec, 1, oneCurve)
	if err != nil {
		return nil, err
	}
	return []plot.Series{
		line("model wormhole", cs[0], analysisOf),
		modelLine("model store-and-forward", cs[0], baseline.MeanLatency),
		line("simulation", cs[0], simulationOf),
	}, nil
}

// SaturationRow is one line of the saturation summary table.
type SaturationRow struct {
	Panel     string
	Org       string
	MFlits    int
	FlitBytes int
	// ModelSat is the wormhole model's λ_sat; BaselineSat the
	// store-and-forward baseline's; PaperXMax the right edge of the
	// corresponding figure axis in the paper.
	ModelSat    float64
	BaselineSat float64
	PaperXMax   float64
}

// SaturationSummary regenerates the λ_sat table (the "saturation" manifest
// entry): the model's saturation point for every figure panel next to the paper's
// plotted x-range (the paper stopped each axis where its analysis
// saturated, which is the comparison that anchors the calibration).
func SaturationSummary() ([]SaturationRow, error) {
	cases := []SaturationRow{
		{Panel: "Fig3-left", Org: "org1", MFlits: 32, FlitBytes: 256, PaperXMax: 5e-4},
		{Panel: "Fig3-right", Org: "org1", MFlits: 64, FlitBytes: 256, PaperXMax: 2.5e-4},
		{Panel: "Fig4-left", Org: "org2", MFlits: 32, FlitBytes: 256, PaperXMax: 1e-3},
		{Panel: "Fig4-right", Org: "org2", MFlits: 64, FlitBytes: 256, PaperXMax: 5e-4},
	}
	for i := range cases {
		org, err := system.ParseOrganization(cases[i].Org)
		if err != nil {
			return nil, err
		}
		sys, err := system.New(org)
		if err != nil {
			return nil, err
		}
		par := units.Default().WithMessage(cases[i].MFlits, cases[i].FlitBytes)
		if cases[i].ModelSat, err = sweep.ModelFor("calibrated", system.Format(org), "", "", par).SaturationPoint(1e-4); err != nil {
			return nil, err
		}
		baseline, err := analytic.NewBaseline(sys, par)
		if err != nil {
			return nil, err
		}
		cases[i].BaselineSat = baseline.SaturationPoint(1e-6, 1, 1e-4)
	}
	return cases, nil
}

// FormatSaturationSummary renders the rows as a table.
func FormatSaturationSummary(rows []SaturationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-5s %3s %5s %13s %13s %14s %9s\n",
		"panel", "org", "M", "Lm", "model λ_sat", "paper x-max", "baseline λ_sat", "sat/x-max")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-11s %-5s %3d %5d %13.4g %13.4g %14.4g %9.2f\n",
			row.Panel, row.Org, row.MFlits, row.FlitBytes,
			row.ModelSat, row.PaperXMax, row.BaselineSat, row.ModelSat/row.PaperXMax)
	}
	return b.String()
}
