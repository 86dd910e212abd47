package mcnet_test

import (
	"bytes"
	"fmt"
	"math"

	"mcnet"
	"mcnet/internal/workload"
)

// ExampleAnalyze evaluates the analytical model on the paper's second
// Table 1 organization at a light load.
func ExampleAnalyze() {
	latency, err := mcnet.Analyze(mcnet.Table1Org2(), mcnet.DefaultParams(), 1e-4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean message latency: %.1f time units\n", latency)
	// Output:
	// mean message latency: 24.6 time units
}

// ExampleParseOrganization builds the paper's first organization from the
// compact command-line syntax.
func ExampleParseOrganization() {
	org, err := mcnet.ParseOrganization("m=8:12x1,16x2,4x3")
	if err != nil {
		panic(err)
	}
	sys, err := mcnet.NewSystem(org)
	if err != nil {
		panic(err)
	}
	fmt.Printf("N=%d C=%d\n", sys.TotalNodes(), sys.C())
	// Output:
	// N=1120 C=32
}

// ExampleSaturationPoint finds the offered traffic at which the model's
// stability region ends — the right edge of the paper's figures.
func ExampleSaturationPoint() {
	sat, err := mcnet.SaturationPoint(mcnet.Table1Org1(), mcnet.DefaultParams())
	if err != nil {
		panic(err)
	}
	fmt.Printf("λ_sat ≈ %.1e messages/node/time-unit\n", sat)
	// Output:
	// λ_sat ≈ 5.3e-04 messages/node/time-unit
}

// ExampleNewModel_perCluster breaks the model's answer down by cluster on
// the paper's second organization: each cluster's outgoing probability
// P_o, its intra- and inter-cluster journey times, its concentrator wait
// W_d (Eq. 34) and its mean latency ℓ_i (Eq. 35).
func ExampleNewModel_perCluster() {
	org := mcnet.Table1Org2()
	model, err := mcnet.NewModel(org, mcnet.DefaultParams())
	if err != nil {
		panic(err)
	}
	res, err := model.Evaluate(1e-4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean message latency: %.2f\n", res.MeanLatency)
	fmt.Printf("%3s %6s %8s %8s %6s %8s\n", "i", "P_o", "T_intra", "T_inter", "W_d", "latency")
	for i, c := range res.PerCluster {
		fmt.Printf("%3d %6.4f %8.3f %8.3f %6.3f %8.3f\n", i, c.POut, c.TIntra, c.TInter, c.WConc, c.Latency)
	}
	// Output:
	// mean message latency: 24.57
	//   i    P_o  T_intra  T_inter    W_d  latency
	//   0 0.9724   18.266   23.335  0.706   23.881
	//   1 0.9724   18.266   23.335  0.706   23.881
	//   2 0.9724   18.266   23.335  0.706   23.881
	//   3 0.9724   18.266   23.335  0.706   23.881
	//   4 0.9724   18.266   23.335  0.706   23.881
	//   5 0.9724   18.266   23.335  0.706   23.881
	//   6 0.9724   18.266   23.335  0.706   23.881
	//   7 0.9724   18.266   23.335  0.706   23.881
	//   8 0.9429   19.490   23.753  0.912   24.370
	//   9 0.9429   19.490   23.753  0.912   24.370
	//  10 0.9429   19.490   23.753  0.912   24.370
	//  11 0.8840   20.607   24.153  1.312   24.901
	//  12 0.8840   20.607   24.153  1.312   24.901
	//  13 0.8840   20.607   24.153  1.312   24.901
	//  14 0.8840   20.607   24.153  1.312   24.901
	//  15 0.8840   20.607   24.153  1.312   24.901
}

// ExampleSimulate runs a small simulation with the full §4 lifecycle
// (warm-up, measurement, drain) on a custom four-cluster system.
func ExampleSimulate() {
	org := mcnet.Organization{
		Name:  "example",
		Ports: 4,
		Specs: []mcnet.ClusterSpec{{Count: 4, Levels: 1}},
	}
	res, err := mcnet.Simulate(mcnet.SimConfig{
		Org: org, Par: mcnet.DefaultParams(), LambdaG: 1e-4,
		Warmup: 100, Measure: 1000, Drain: 100, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured %d messages, all delivered: %v\n",
		res.Latency.Count, res.DeliveredMeasured == 1000)
	// Output:
	// measured 1000 messages, all delivered: true
}

// ExampleSimulate_heteroLinks gives single network tiers their own link
// technology (the same spec strings `mcsim -links` and sweep specs accept)
// and runs the model and the simulator on each configuration. Slowing the
// global ICN2 and concentrator links moves only the inter-cluster latency;
// speeding up the cluster fabric moves only the intra-cluster latency.
func ExampleSimulate_heteroLinks() {
	org, par := mcnet.Table1Org2(), mcnet.DefaultParams()
	configs := []struct{ name, links string }{
		{"uniform", "uniform"},
		{"slow backbone", "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004"},
		{"fast cluster fabric", "icn1=0.01/0.005/0.001"},
	}
	// One common load, 40% of the slowest configuration's saturation.
	pars := make([]mcnet.Params, len(configs))
	lambda := math.Inf(1)
	for i, c := range configs {
		tiers, err := mcnet.ParseTiers(c.links)
		if err != nil {
			panic(err)
		}
		pars[i] = par
		pars[i].Tiers = tiers
		sat, err := mcnet.SaturationPoint(org, pars[i])
		if err != nil {
			panic(err)
		}
		lambda = math.Min(lambda, 0.4*sat)
	}
	for i, c := range configs {
		model, err := mcnet.Analyze(org, pars[i], lambda)
		if err != nil {
			panic(err)
		}
		res, err := mcnet.Simulate(mcnet.SimConfig{
			Org: org, Par: pars[i], LambdaG: lambda,
			Warmup: 1000, Measure: 10000, Drain: 1000, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-19s model %.1f  sim %.1f  intra %.1f  inter %.1f\n", c.name,
			model, res.Latency.Mean, res.IntraLatency.Mean, res.InterLatency.Mean)
	}
	// Output:
	// uniform             model 27.3  sim 27.2  intra 20.1  inter 27.8
	// slow backbone       model 48.5  sim 64.9  intra 20.1  inter 69.0
	// fast cluster fabric model 26.5  sim 26.3  intra 10.0  inter 27.8
}

// ExampleAnalyze_topologies wires the same switches three ways — the
// paper's fat trees, random-regular (Jellyfish) cluster fabrics and a
// Dragonfly global network — through the organization syntax, and puts
// the model next to the simulator on each at one common load.
func ExampleAnalyze_topologies() {
	par := mcnet.DefaultParams()
	configs := []struct{ name, org string }{
		{"fat trees", "m=4:8x3,3x4,5x5"},
		{"jellyfish ICN1s", "m=4:8x3@topo=jellyfish,3x4@topo=jellyfish,5x5@topo=jellyfish"},
		{"dragonfly ICN2", "m=4@icn2topo=dragonfly:8x3,3x4,5x5"},
	}
	// One common load, 25% of the slowest configuration's saturation.
	orgs := make([]mcnet.Organization, len(configs))
	lambda := math.Inf(1)
	for i, c := range configs {
		org, err := mcnet.ParseOrganization(c.org)
		if err != nil {
			panic(err)
		}
		orgs[i] = org
		sat, err := mcnet.SaturationPoint(org, par)
		if err != nil {
			panic(err)
		}
		lambda = math.Min(lambda, 0.25*sat)
	}
	for i, c := range configs {
		model, err := mcnet.Analyze(orgs[i], par, lambda)
		if err != nil {
			panic(err)
		}
		res, err := mcnet.Simulate(mcnet.SimConfig{
			Org: orgs[i], Par: par, LambdaG: lambda,
			Warmup: 1000, Measure: 10000, Drain: 1000, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-15s model %.1f  sim %.1f  intra %.1f  inter %.1f\n", c.name,
			model, res.Latency.Mean, res.IntraLatency.Mean, res.InterLatency.Mean)
	}
	// Output:
	// fat trees       model 28.8  sim 28.5  intra 20.1  inter 29.3
	// jellyfish ICN1s model 28.7  sim 28.4  intra 18.9  inter 29.3
	// dragonfly ICN2  model 26.7  sim 29.6  intra 20.1  inter 30.4
}

// ExampleSimulate_burstyReplay runs one offered load under the model's
// Poisson/fixed-length assumptions and under bursty MMPP arrivals with a
// bimodal length mix of the same mean (0.2·128 + 0.8·8 = 32 flits), then
// records the bursty run's generation stream to a trace and replays it:
// the replay reproduces every latency bit for bit.
func ExampleSimulate_burstyReplay() {
	org, par := mcnet.Table1Org2(), mcnet.DefaultParams()
	sat, err := mcnet.SaturationPoint(org, par)
	if err != nil {
		panic(err)
	}
	lambda := 0.4 * sat
	model, err := mcnet.Analyze(org, par, lambda)
	if err != nil {
		panic(err)
	}
	fmt.Printf("model (poisson / fixed): %.1f\n", model)

	base := mcnet.SimConfig{
		Org: org, Par: par, LambdaG: lambda,
		Warmup: 1000, Measure: 10000, Drain: 1000, Seed: 1,
	}
	workloads := []struct {
		arrival workload.Arrival
		sizes   workload.SizeDist
	}{
		{workload.Poisson{}, workload.Fixed{}},
		{workload.MMPP{Peak: 16, Burst: 32}, workload.Fixed{}},
		{workload.Poisson{}, workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}},
	}
	for _, w := range workloads {
		cfg := base
		cfg.Arrival, cfg.Sizes = w.arrival, w.sizes
		res, err := mcnet.Simulate(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("sim (%s / %s): %.1f\n", w.arrival.Name(), w.sizes.Name(), res.Latency.Mean)
	}

	// Record the bursty run's generation stream, then replay the trace.
	cfg := base
	cfg.Arrival = workload.MMPP{Peak: 16, Burst: 32}
	cfg.Sizes = workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}
	var buf bytes.Buffer
	tw, err := workload.NewWriter(&buf, workload.Header{
		Org: mcnet.FormatOrganization(org), Flits: par.MessageFlits, FlitBytes: par.FlitBytes,
		AlphaNet: par.AlphaNet, AlphaSw: par.AlphaSw, BetaNet: par.BetaNet,
		Lambda: lambda, Arrival: cfg.Arrival.Name(), Size: cfg.Sizes.Name(),
		Seed: cfg.Seed, Warmup: cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain,
	})
	if err != nil {
		panic(err)
	}
	cfg.Record = func(e workload.Event) {
		if err := tw.Add(e); err != nil {
			panic(err)
		}
	}
	orig, err := mcnet.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	if err := tw.Flush(); err != nil {
		panic(err)
	}
	tr, err := workload.Read(&buf)
	if err != nil {
		panic(err)
	}
	replayCfg, err := mcnet.ReplayConfig(tr)
	if err != nil {
		panic(err)
	}
	replay, err := mcnet.Simulate(replayCfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sim (%s / %s): %.1f\n", cfg.Arrival.Name(), cfg.Sizes.Name(), orig.Latency.Mean)
	fmt.Printf("recorded %d events; replay bit-exact: %v\n", tw.Events(), replay.Latency == orig.Latency)
	// Output:
	// model (poisson / fixed): 34.3
	// sim (poisson / fixed): 35.7
	// sim (mmpp:16:32 / fixed): 61.2
	// sim (poisson / bimodal:8:128:0.2): 307.8
	// sim (mmpp:16:32 / bimodal:8:128:0.2): 2490.7
	// recorded 12000 events; replay bit-exact: true
}
