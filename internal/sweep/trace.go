package sweep

import (
	"fmt"

	"mcnet/internal/mcsim"
	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// TraceHeader renders the job's identity as a workload trace header, so a
// run recorded from this job carries everything needed to replay it. The
// header's organization has the job's topology axis folded in.
func (j Job) TraceHeader() (workload.Header, error) {
	org, err := j.TopoOrg()
	if err != nil {
		return workload.Header{}, err
	}
	return workload.Header{
		Org: system.Format(org), Flits: j.Flits, FlitBytes: j.FlitBytes,
		AlphaNet: j.AlphaNet, AlphaSw: j.AlphaSw, BetaNet: j.BetaNet,
		Links:   j.Links,
		Lambda:  j.Lambda,
		Arrival: j.Arrival, Size: j.SizeDist, Pattern: j.Pattern, Routing: j.Routing,
		Seed:   j.SimSeed,
		Warmup: j.Warmup, Measure: j.Measure, Drain: j.Drain,
	}, nil
}

// ReplayConfig reconstructs the simulator configuration that re-runs a
// recorded trace bit-exactly: organization, technology parameters, routing
// mode and measurement phases come from the header, and the generation
// stream is the recorded events. Change any field of the returned config
// (organization, routing, technology) before running for trace-driven
// "what if" evaluation instead.
func ReplayConfig(tr *workload.Trace) (mcsim.Config, error) {
	h := tr.Header
	// The workload axes keep their defaults: a replay never reads them.
	j := Job{
		Org: h.Org, Flits: h.Flits, FlitBytes: h.FlitBytes,
		Pattern: "uniform", Routing: h.Routing, Links: h.Links,
		Lambda: h.Lambda, SimSeed: h.Seed,
		AlphaNet: h.AlphaNet, AlphaSw: h.AlphaSw, BetaNet: h.BetaNet,
		Warmup: h.Warmup, Measure: h.Measure, Drain: h.Drain,
	}
	// Legacy headers leave routing, technology and geometry zero.
	def := units.Default()
	if j.Routing == "" {
		j.Routing = "balanced"
	}
	if j.AlphaNet == 0 && j.AlphaSw == 0 && j.BetaNet == 0 {
		j.AlphaNet, j.AlphaSw, j.BetaNet = def.AlphaNet, def.AlphaSw, def.BetaNet
	}
	if j.Flits <= 0 || j.FlitBytes <= 0 {
		j.Flits, j.FlitBytes = def.MessageFlits, def.FlitBytes
	}
	cfg, err := j.Config()
	if err != nil {
		return mcsim.Config{}, fmt.Errorf("sweep: trace header: %v", err)
	}
	cfg.Replay = tr.Events
	return cfg, nil
}
