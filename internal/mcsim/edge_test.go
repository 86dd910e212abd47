package mcsim

import (
	"math"
	"testing"

	"mcnet/internal/routing"
	"mcnet/internal/system"
	"mcnet/internal/traffic"
	"mcnet/internal/units"
)

func TestTwoClusterMinimalSystem(t *testing.T) {
	// The smallest legal multi-cluster system: 2 clusters of 2 nodes (m=2).
	cfg := Config{
		Org: system.Organization{
			Name:  "minimal",
			Ports: 2,
			Specs: []system.ClusterSpec{{Count: 2, Levels: 1}},
		},
		Par: units.Default(), LambdaG: 1e-3,
		Warmup: 50, Measure: 500, Drain: 50, Seed: 3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != 500 {
		t.Fatalf("delivered %d/500", res.DeliveredMeasured)
	}
	// With 2-node clusters, 2/3 of the destinations are external.
	if math.Abs(res.ObservedPOut-2.0/3.0) > 0.06 {
		t.Errorf("observed P_out = %v, want ≈2/3", res.ObservedPOut)
	}
}

func TestZeroWarmupZeroDrain(t *testing.T) {
	cfg := smallConfig(0.001, 13)
	cfg.Warmup, cfg.Drain = 0, 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Errorf("delivered %d/%d without warmup/drain", res.DeliveredMeasured, cfg.Measure)
	}
	if res.Generated != cfg.Measure {
		t.Errorf("generated %d, want exactly %d", res.Generated, cfg.Measure)
	}
}

func TestHeavyLoadTerminatesWithoutTruncation(t *testing.T) {
	// Far past saturation the queues explode, but generation stops at the
	// budget so the run must still terminate and deliver every measured
	// message (with huge latencies).
	cfg := smallConfig(0.05, 19) // ≈10× the saturation load
	cfg.Warmup, cfg.Measure, cfg.Drain = 200, 2000, 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Fatalf("delivered %d/%d", res.DeliveredMeasured, cfg.Measure)
	}
	low, err := Run(smallConfig(0.0002, 19))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Latency.Mean > 5*low.Latency.Mean) {
		t.Errorf("deep-saturation latency %v not far above steady latency %v",
			res.Latency.Mean, low.Latency.Mean)
	}
}

func TestRandomUpWithClusterLocalPattern(t *testing.T) {
	cfg := smallConfig(0.001, 23)
	cfg.RoutingMode = routing.RandomUp
	cfg.Pattern = func(sys *system.System) traffic.Pattern {
		return traffic.ClusterLocal{Sys: sys, PLocal: 0.5}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Fatalf("delivered %d/%d", res.DeliveredMeasured, cfg.Measure)
	}
	if math.Abs(res.ObservedPOut-0.5) > 0.05 {
		t.Errorf("observed P_out = %v, want ≈0.5", res.ObservedPOut)
	}
}

func TestLatencyDistributionConsistency(t *testing.T) {
	res, err := Run(smallConfig(0.001, 29))
	if err != nil {
		t.Fatal(err)
	}
	// Min ≤ Mean ≤ Max, positive variance at non-trivial load, intra min
	// below inter min (shorter paths).
	l := res.Latency
	if !(l.Min <= l.Mean && l.Mean <= l.Max) {
		t.Errorf("ordering violated: %+v", l)
	}
	if !(l.Variance > 0) {
		t.Errorf("variance = %v", l.Variance)
	}
	if !(res.IntraLatency.Min < res.InterLatency.Min) {
		t.Errorf("intra min %v not below inter min %v", res.IntraLatency.Min, res.InterLatency.Min)
	}
	// The total mean is the count-weighted mix of the two classes.
	mix := (res.IntraLatency.Mean*float64(res.IntraLatency.Count) +
		res.InterLatency.Mean*float64(res.InterLatency.Count)) / float64(l.Count)
	if math.Abs(mix-l.Mean) > 1e-9*l.Mean {
		t.Errorf("class mix %v != overall mean %v", mix, l.Mean)
	}
}

func TestSeedSweepVariability(t *testing.T) {
	// Replications with different seeds must produce close but not
	// identical means at steady load (sanity of the CI machinery upstream).
	var means []float64
	for seed := uint64(100); seed < 104; seed++ {
		res, err := Run(smallConfig(0.0008, seed))
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, res.Latency.Mean)
	}
	for i := 1; i < len(means); i++ {
		if means[i] == means[0] {
			t.Errorf("seeds %d and %d produced identical means", 100, 100+i)
		}
		if math.Abs(means[i]-means[0]) > 0.10*means[0] {
			t.Errorf("replication spread too wide: %v vs %v", means[i], means[0])
		}
	}
}

func TestStressOrg1HighLoadConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	// Org1 at 90% of model saturation with the full methodology must
	// deliver every measured message and leave a clean network.
	s, err := New(Config{
		Org: system.Table1Org1(), Par: units.Default(), LambdaG: 4.7e-4,
		Warmup: 5000, Measure: 50000, Drain: 5000, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != 50000 {
		t.Fatalf("delivered %d/50000", res.DeliveredMeasured)
	}
	s.sched.RunAll(0)
	if s.net.InFlight() != 0 {
		t.Errorf("in-flight worms after full drain: %d", s.net.InFlight())
	}
	if s.net.Delivered() != uint64(s.genCount) {
		t.Errorf("delivered %d != generated %d", s.net.Delivered(), s.genCount)
	}
}
