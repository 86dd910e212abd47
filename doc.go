// Package mcnet reproduces "Analysis of Interconnection Networks in
// Heterogeneous Multi-Cluster Systems" (Javadi, Abawajy, Akbari, Nahavandi —
// ICPP Workshops 2006): an analytical model of mean message latency for
// multi-cluster systems built from m-port n-tree (fat-tree) networks with
// wormhole flow control, heterogeneous cluster sizes, and a full
// discrete-event simulator used to validate the model.
//
// This root package is the public facade; it re-exports the pieces a
// downstream user needs:
//
//   - describing systems (Organization, the Table 1 presets, ParseOrganization)
//   - evaluating the analytical model (NewModel, Analyze, SaturationPoint)
//   - running the validation simulator (Simulate)
//   - comparing the two (Compare)
//   - orchestrating whole parameter grids (Sweep, SweepEngine, ExpandSweep)
//
// The implementation lives under internal/: see internal/analytic (the
// model, Eqs. 3–36), internal/mcsim (the simulator), internal/topo (the
// fat tree and the other topologies), internal/sweep (the concurrent
// sweep engine behind cmd/mcsweep and the experiments), and DESIGN.md for
// the system inventory and fidelity notes.
//
// # Quick start
//
//	org := mcnet.Table1Org1()                  // N=1120, C=32, m=8
//	par := mcnet.DefaultParams()               // M=32 flits of 256 bytes
//	cmp, err := mcnet.Compare(org, par, 2e-4, 12345)
//	if err != nil { ... }
//	fmt.Printf("analysis %.2f vs simulation %.2f time units\n",
//		cmp.Analysis, cmp.Simulation)
//
// The Example functions in example_test.go run under go test and show the
// facade on heterogeneous links, alternative topologies and bursty traffic
// with trace replay. The seven command-line tools under cmd/ (mcsim,
// mctopo, mcsweep, mcrepro, mcserved, benchdiff, promlint) import the
// internal/ packages directly rather than this facade.
package mcnet
