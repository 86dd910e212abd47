package mcsim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mcnet/internal/routing"
	"mcnet/internal/system"
	"mcnet/internal/traffic"
	"mcnet/internal/units"
)

// smallOrg is a fast heterogeneous system: 2 clusters of 4 nodes and
// 2 clusters of 8 nodes on m=4 (N=24, C=4, ICN2 is a 4-port 1-tree).
func smallOrg() system.Organization {
	return system.Organization{
		Name:  "test-small",
		Ports: 4,
		Specs: []system.ClusterSpec{
			{Count: 2, Levels: 1},
			{Count: 2, Levels: 2},
		},
	}
}

func smallConfig(lambda float64, seed uint64) Config {
	return Config{
		Org:     smallOrg(),
		Par:     units.Default(),
		LambdaG: lambda,
		Warmup:  200,
		Measure: 2000,
		Drain:   200,
		Seed:    seed,
	}
}

// zeroLoadExpectation enumerates the exact unloaded mean latency over all
// ordered (src,dst) pairs. With no contention a worm's tail arrives at
// Σft + (M−1)·max(ft) (pipeline recurrence over the whole merged path).
func zeroLoadExpectation(t *testing.T, org system.Organization, par units.Params) float64 {
	t.Helper()
	sys := system.MustNew(org)
	tcn, tcs := par.Tcn(), par.Tcs()
	M := float64(par.MessageFlits)
	var total float64
	var pairs int
	n := sys.TotalNodes()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			si, sl := sys.ClusterOf(src)
			di, dl := sys.ClusterOf(dst)
			var lat float64
			if si == di {
				j := sys.Clusters[si].ECN1Net.NCALevel(sl, dl)
				if j == 1 {
					lat = 2*tcn + (M-1)*tcn
				} else {
					lat = 2*tcn + float64(2*j-2)*tcs + (M-1)*tcs
				}
			} else {
				// Merged path: node-up(t_cn), n_i−1 ups + root link, 2h ICN2
				// links, root link + n_v−1 downs, node-down(t_cn); the body
				// pipelines once behind the header at the t_cs bottleneck.
				ni := float64(sys.Clusters[si].Levels)
				nv := float64(sys.Clusters[di].Levels)
				h := float64(sys.ICN2Net.RouteLen(si, di)) / 2
				lat = 2*tcn + (ni+nv+2*h)*tcs + (M-1)*tcs
			}
			total += lat
			pairs++
		}
	}
	return total / float64(pairs)
}

func TestZeroLoadLatencyMatchesEnumeration(t *testing.T) {
	cfg := smallConfig(1e-6, 42) // essentially no contention
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := zeroLoadExpectation(t, cfg.Org, cfg.Par)
	if math.Abs(res.Latency.Mean-want) > 0.03*want {
		t.Errorf("zero-load mean latency = %v, enumeration gives %v", res.Latency.Mean, want)
	}
	// At zero load the minimum observed latency must be at least the
	// smallest possible pipeline time, M·t_cn + t_cn.
	if min := cfg.Par.MTcn() + cfg.Par.Tcn(); res.Latency.Min < min-1e-6 {
		t.Errorf("min latency %v below physical floor %v", res.Latency.Min, min)
	}
}

func TestMeasurementAccounting(t *testing.T) {
	cfg := smallConfig(0.001, 7)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Errorf("DeliveredMeasured = %d, want %d", res.DeliveredMeasured, cfg.Measure)
	}
	if res.Latency.Count != int64(cfg.Measure) {
		t.Errorf("latency count = %d, want %d", res.Latency.Count, cfg.Measure)
	}
	if res.Generated < cfg.Warmup+cfg.Measure {
		t.Errorf("Generated = %d, want ≥ %d", res.Generated, cfg.Warmup+cfg.Measure)
	}
	if res.Generated > cfg.Warmup+cfg.Measure+cfg.Drain {
		t.Errorf("Generated = %d exceeds cap %d", res.Generated, cfg.Warmup+cfg.Measure+cfg.Drain)
	}
	if got := res.IntraLatency.Count + res.InterLatency.Count; got != int64(cfg.Measure) {
		t.Errorf("intra+inter counts = %d, want %d", got, cfg.Measure)
	}
	var perCluster int64
	for _, pc := range res.PerCluster {
		perCluster += pc.Count
	}
	if perCluster != int64(cfg.Measure) {
		t.Errorf("per-cluster counts sum to %d, want %d", perCluster, cfg.Measure)
	}
	if res.Truncated {
		t.Error("unexpected truncation")
	}
}

func TestObservedPOutMatchesEquation13(t *testing.T) {
	cfg := smallConfig(0.0005, 11)
	cfg.Measure = 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := system.MustNew(cfg.Org)
	var want float64
	for i, c := range sys.Clusters {
		want += float64(c.Nodes) / float64(sys.TotalNodes()) * sys.POut(i)
	}
	if math.Abs(res.ObservedPOut-want) > 0.02 {
		t.Errorf("observed P_out = %v, Eq. 13 weighted mean = %v", res.ObservedPOut, want)
	}
}

func TestInterClusterSlowerThanIntra(t *testing.T) {
	res, err := Run(smallConfig(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.InterLatency.Mean > res.IntraLatency.Mean) {
		t.Errorf("inter mean %v should exceed intra mean %v",
			res.InterLatency.Mean, res.IntraLatency.Mean)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	low, err := Run(smallConfig(0.0002, 5))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(smallConfig(0.004, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !(high.Latency.Mean > low.Latency.Mean) {
		t.Errorf("latency at high load (%v) not above low load (%v)",
			high.Latency.Mean, low.Latency.Mean)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := Run(smallConfig(0.002, 123))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(0.002, 123))
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.SimTime != b.SimTime || a.Events != b.Events {
		t.Errorf("same seed gave different results:\n%+v\n%+v", a.Latency, b.Latency)
	}
	c, err := Run(smallConfig(0.002, 124))
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean == c.Latency.Mean {
		t.Error("different seeds gave identical mean latency")
	}
}

func TestNetworkDrainsAfterRun(t *testing.T) {
	s, err := New(smallConfig(0.002, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// All measured messages done; in-flight worms may only be drain
	// messages. Run the residual events and verify full conservation.
	s.sched.RunAll(0)
	if got := s.net.InFlight(); got != 0 {
		t.Errorf("in-flight worms after full drain: %d", got)
	}
	for c := 0; c < s.net.Channels(); c++ {
		if s.net.Busy(int32(c)) {
			t.Errorf("channel %d busy after drain", c)
		}
		if s.net.QueueLen(int32(c)) != 0 {
			t.Errorf("channel %d has waiters after drain", c)
		}
	}
}

func TestClusterLocalPatternStaysLocal(t *testing.T) {
	cfg := smallConfig(0.001, 21)
	cfg.Pattern = func(sys *system.System) traffic.Pattern {
		return traffic.ClusterLocal{Sys: sys, PLocal: 1}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterLatency.Count != 0 {
		t.Errorf("PLocal=1 produced %d inter-cluster messages", res.InterLatency.Count)
	}
	if res.ObservedPOut != 0 {
		t.Errorf("observed P_out = %v, want 0", res.ObservedPOut)
	}
}

func TestHotspotPatternRuns(t *testing.T) {
	cfg := smallConfig(0.0005, 22)
	cfg.Pattern = func(sys *system.System) traffic.Pattern {
		return traffic.Hotspot{N: sys.TotalNodes(), Hot: 0, Fraction: 0.2}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Errorf("hotspot run delivered %d/%d", res.DeliveredMeasured, cfg.Measure)
	}
}

func TestRandomUpRoutingDeliversEverything(t *testing.T) {
	cfg := smallConfig(0.001, 31)
	cfg.RoutingMode = routing.RandomUp
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Errorf("random-up run delivered %d/%d", res.DeliveredMeasured, cfg.Measure)
	}
}

func TestRateFactorSkewsTraffic(t *testing.T) {
	cfg := smallConfig(0.0005, 41)
	cfg.Org.Specs[0].RateFactor = 4 // the two 4-node clusters generate 4×
	cfg.Measure = 6000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Expected source share of cluster 0: 4·4 / (4·4 + 4·4 + 8 + 8) = 1/3.
	share := float64(res.PerCluster[0].Count) / float64(cfg.Measure)
	if math.Abs(share-1.0/3.0) > 0.03 {
		t.Errorf("cluster 0 source share = %v, want ≈ 1/3", share)
	}
}

func TestTruncationByEventBudget(t *testing.T) {
	cfg := smallConfig(0.001, 51)
	cfg.MaxEvents = 500
	res, err := Run(cfg)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if !res.Truncated {
		t.Error("Truncated flag not set")
	}
	if res.DeliveredMeasured >= cfg.Measure {
		t.Error("truncated run claims full measurement")
	}
}

func TestConfigValidation(t *testing.T) {
	base := smallConfig(0.001, 1)
	bad := []func(*Config){
		func(c *Config) { c.LambdaG = 0 },
		func(c *Config) { c.LambdaG = -1 },
		func(c *Config) { c.Measure = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Drain = -1 },
		func(c *Config) { c.Par.MessageFlits = 0 },
		func(c *Config) { c.Org.Ports = 3 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestPhaseCountsBoundedByInt32: a run may generate at most math.MaxInt32
// messages, the bound that keeps a channel's 32-bit grant count exact. New
// rejects phase counts past it, including sums that would overflow an int,
// and accepts a sum exactly at it.
func TestPhaseCountsBoundedByInt32(t *testing.T) {
	base := smallConfig(0.001, 1)
	for _, phases := range [][3]int{
		{1, math.MaxInt32, 0},
		{0, math.MaxInt32, 1},
		{math.MaxInt32, 1, 0},
		{0, math.MaxInt, 0},
		{math.MaxInt, math.MaxInt, math.MaxInt},
		{math.MaxInt32 / 2, math.MaxInt32 / 2, 2},
	} {
		cfg := base
		cfg.Warmup, cfg.Measure, cfg.Drain = phases[0], phases[1], phases[2]
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "sum past") {
			t.Errorf("phases %v: error %v, want a rejection past %d messages", phases, err, math.MaxInt32)
		}
	}
	cfg := base
	cfg.Warmup, cfg.Measure, cfg.Drain = 1, math.MaxInt32-2, 1
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("phases summing to math.MaxInt32 rejected: %v", err)
	}
	s.Release()
}

func TestWarmupExcludedFromStatistics(t *testing.T) {
	// With Warmup == total generation budget − Measure the stats must still
	// only contain Measure observations.
	cfg := smallConfig(0.001, 61)
	cfg.Warmup, cfg.Measure, cfg.Drain = 1000, 500, 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count != 500 {
		t.Errorf("latency count = %d, want 500", res.Latency.Count)
	}
}

func TestTable1Org2SmallRun(t *testing.T) {
	// A short run on a real paper organization exercises the full topology
	// stack (5-level trees, 16 clusters, 3-level ICN2).
	cfg := Config{
		Org:     system.Table1Org2(),
		Par:     units.Default(),
		LambdaG: 0.0001,
		Warmup:  100,
		Measure: 1500,
		Drain:   100,
		Seed:    71,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != cfg.Measure {
		t.Fatalf("delivered %d/%d", res.DeliveredMeasured, cfg.Measure)
	}
	// Nearly all traffic is inter-cluster in this organization.
	if res.ObservedPOut < 0.9 {
		t.Errorf("observed P_out = %v, expected > 0.9", res.ObservedPOut)
	}
}

func TestSourceWaitGrowsWithLoad(t *testing.T) {
	low, err := Run(smallConfig(0.0002, 8))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(smallConfig(0.004, 8))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(low.SourceWait.Mean) || math.IsNaN(high.SourceWait.Mean) {
		t.Fatal("source wait not recorded")
	}
	if low.SourceWait.Mean < 0 {
		t.Errorf("negative source wait %v", low.SourceWait.Mean)
	}
	if !(high.SourceWait.Mean > low.SourceWait.Mean) {
		t.Errorf("source wait at high load (%v) not above low load (%v)",
			high.SourceWait.Mean, low.SourceWait.Mean)
	}
	// The source wait is a component of total latency.
	if high.SourceWait.Mean >= high.Latency.Mean {
		t.Errorf("source wait %v exceeds total latency %v", high.SourceWait.Mean, high.Latency.Mean)
	}
}
