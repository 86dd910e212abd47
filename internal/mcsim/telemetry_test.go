package mcsim

import (
	"math"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
)

func telemetryConfig(lambda float64, seed uint64) Config {
	cfg := smallConfig(lambda, seed)
	cfg.Telemetry = &TelemetryConfig{}
	return cfg
}

// TestTelemetryDoesNotPerturbResults is the zero-interference contract: a
// run with telemetry on must produce the bit-identical Result of the same
// run with telemetry off (the collector only reads simulator state).
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	base, err := Run(smallConfig(0.0004, 42))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(telemetryConfig(0.0004, 42))
	if err != nil {
		t.Fatal(err)
	}
	if observed.Events != base.Events || observed.SimTime != base.SimTime ||
		observed.Latency != base.Latency || observed.SourceWait != base.SourceWait ||
		observed.Generated != base.Generated || observed.DeliveredMeasured != base.DeliveredMeasured {
		t.Errorf("telemetry changed the result:\nwith    %+v\nwithout %+v", observed, base)
	}
}

// TestTelemetryReportConsistency checks the report's internal arithmetic on
// a loaded run: utilizations are sane, blocking fractions form a
// distribution, the latency decomposition reassembles the measured mean,
// and the series advances monotonically.
func TestTelemetryReportConsistency(t *testing.T) {
	sim, err := New(telemetryConfig(0.0008, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Telemetry().Snapshot()

	if rep.Events != res.Events || rep.Time != res.SimTime {
		t.Errorf("report clock (%d, %v) != result clock (%d, %v)", rep.Events, rep.Time, res.Events, res.SimTime)
	}
	if ev, now := sim.Telemetry().Progress(); ev != res.Events || now != res.SimTime {
		t.Errorf("Progress() = (%d, %v), want the result clock (%d, %v)", ev, now, res.Events, res.SimTime)
	}
	if len(rep.Tiers) != int(numTiers) {
		t.Fatalf("%d tiers in report, want %d", len(rep.Tiers), numTiers)
	}
	channels, blockSum := 0, 0.0
	for _, tier := range rep.Tiers {
		channels += tier.Channels
		blockSum += tier.BlockingFraction
		if tier.Utilization < 0 || tier.Utilization > 1.000001 {
			t.Errorf("tier %s utilization %v outside [0,1]", tier.Tier, tier.Utilization)
		}
		if tier.MaxUtilization < tier.Utilization-1e-9 {
			t.Errorf("tier %s max utilization %v below mean %v", tier.Tier, tier.MaxUtilization, tier.Utilization)
		}
		if tier.BusyTime < 0 || tier.BusyTime > rep.Time*float64(tier.Channels)+1e-9 {
			t.Errorf("tier %s busy time %v outside [0, %v]", tier.Tier, tier.BusyTime, rep.Time*float64(tier.Channels))
		}
	}
	if channels != sim.Network().Channels() {
		t.Errorf("tiers cover %d channels, network has %d", channels, sim.Network().Channels())
	}
	// Channel count per tier is structural: verify against the topology.
	// Each cluster's ICN1 has the shape of its ECN1; the concentrator tier
	// adds the ECN1 root↔concentrator links and the concentrator↔ICN2
	// injection/ejection links.
	sys := sim.System()
	var want [numTiers]int
	for _, c := range sys.Clusters {
		want[TierICN1] += c.ECN1Net.Channels()
		want[TierECN1] += c.ECN1Net.Channels()
		want[TierConc] += 2 * c.ECN1Net.Roots()
	}
	want[TierConc] += 2 * sys.ICN2Net.Nodes()
	want[TierICN2] = sys.ICN2Net.Channels() - 2*sys.ICN2Net.Nodes()
	for i, tier := range rep.Tiers {
		if tier.Channels != want[i] {
			t.Errorf("tier %s covers %d channels, want %d", tier.Tier, tier.Channels, want[i])
		}
	}
	if math.Abs(blockSum-1) > 1e-9 {
		t.Errorf("blocking fractions sum to %v, want 1", blockSum)
	}

	d := rep.Decomposition
	if int(d.Messages) != res.DeliveredMeasured {
		t.Errorf("decomposition over %d messages, measured %d", d.Messages, res.DeliveredMeasured)
	}
	if total := d.MeanQueueing + d.MeanBlocking + d.MeanTransmission; math.Abs(total-res.Latency.Mean) > 1e-6*res.Latency.Mean {
		t.Errorf("decomposition sums to %v, measured mean latency %v", total, res.Latency.Mean)
	}
	if d.MeanQueueing < 0 || d.MeanBlocking < 0 || d.MeanTransmission <= 0 {
		t.Errorf("negative decomposition components: %+v", d)
	}

	if len(rep.Series) == 0 {
		t.Fatal("no time-series samples")
	}
	var lastEv uint64
	for i, p := range rep.Series {
		if p.Events <= lastEv && i > 0 {
			t.Errorf("series[%d] events %d does not advance over %d", i, p.Events, lastEv)
		}
		lastEv = p.Events
		for ti, u := range p.Util {
			if u < -1e-9 || u > 1.000001 {
				t.Errorf("series[%d] tier %d interval utilization %v outside [0,1]", i, ti, u)
			}
		}
	}

	sum := rep.Summary()
	if sum == nil || len(sum.Tiers) != int(numTiers) {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Bottleneck == "" {
		t.Error("summary names no bottleneck tier")
	}
	if sum.TierByName(sum.Bottleneck) == nil {
		t.Errorf("bottleneck %q is not a tier", sum.Bottleneck)
	}
}

func TestConcentratorUtilizationMatchesEq33Load(t *testing.T) {
	// The busiest concentrator link should be utilized at roughly
	// ρ = N_max·P_o·λ_g·M·t_cs, the arrival×service product of the model's
	// concentrator queue (Eq. 33). This pins the physical grounding of the
	// analytic concentrator term.
	org := system.Table1Org2()
	par := units.Default()
	lambda := 3e-4
	s, err := New(Config{
		Org: org, Par: par, LambdaG: lambda,
		Warmup: 2000, Measure: 30000, Drain: 2000, Seed: 31,
		Telemetry: &TelemetryConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sys := s.System()
	var want float64
	for i, c := range sys.Clusters {
		rho := float64(c.Nodes) * sys.POut(i) * lambda * par.MTcs()
		if rho > want {
			want = rho
		}
	}
	got := s.Telemetry().Snapshot().Tiers[TierConc].MaxUtilization
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("max concentrator utilization = %v, Eq. 33 load predicts ≈%v", got, want)
	}
}

// TestTelemetrySeriesCompaction forces the series past its capacity and
// checks in-place decimation: the buffer never exceeds its cap and events
// stay strictly increasing afterwards.
func TestTelemetrySeriesCompaction(t *testing.T) {
	cfg := telemetryConfig(0.0004, 3)
	cfg.Telemetry = &TelemetryConfig{SampleEvery: 64, SeriesCap: 8}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	rep := sim.Telemetry().Snapshot()
	if len(rep.Series) > 8 {
		t.Fatalf("series grew to %d samples, cap is 8", len(rep.Series))
	}
	if len(rep.Series) < 4 {
		t.Fatalf("series has %d samples; compaction should keep the buffer at least half full", len(rep.Series))
	}
	if rep.SeriesEvery <= 64 {
		t.Errorf("series stride %d did not grow past the initial 64", rep.SeriesEvery)
	}
	var last uint64
	for i, p := range rep.Series {
		if i > 0 && p.Events <= last {
			t.Errorf("series[%d] events %d does not advance over %d after compaction", i, p.Events, last)
		}
		last = p.Events
	}
}

// TestTelemetryConcurrentSnapshot hammers Snapshot from another goroutine
// while the simulation runs — the serving layer does exactly this for
// GET /v1/jobs/{id}/telemetry. Run with -race.
func TestTelemetryConcurrentSnapshot(t *testing.T) {
	cfg := telemetryConfig(0.0006, 11)
	cfg.Telemetry = &TelemetryConfig{SampleEvery: 256}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tele := sim.Telemetry()
	done := make(chan struct{})
	started := make(chan struct{})
	snaps := make(chan int, 1)
	go func() {
		n := 0
		tele.Snapshot()
		close(started) // reader is live before the run begins
		for {
			select {
			case <-done:
				snaps <- n
				return
			default:
				rep := tele.Snapshot()
				if len(rep.Tiers) != int(numTiers) {
					t.Errorf("concurrent snapshot lost tiers: %d", len(rep.Tiers))
					snaps <- n
					return
				}
				n++
			}
		}
	}()
	<-started
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	close(done)
	if n := <-snaps; n == 0 {
		t.Error("no snapshots taken during the run")
	}
}

// linearTier classifies channel c by searching the layout cluster by
// cluster: the reference for Sim.channelTiers.
func linearTier(s *Sim, c int32) Tier {
	for i := range s.clusters {
		cn := &s.clusters[i]
		switch {
		case c >= cn.icn1Base && c < cn.icn1Base+int32(cn.icn1.Channels()):
			return TierICN1
		case c >= cn.ecn1Base && c < cn.ecn1Base+int32(cn.ecn1.Channels()):
			return TierECN1
		case c >= cn.rootUpBase && c < cn.rootDownBase+int32(cn.ecn1.Roots()):
			return TierConc
		}
	}
	if c-s.icn2Base < 2*int32(s.icn2.Nodes()) {
		return TierConc
	}
	return TierICN2
}

// TestChannelTiersMatchLinearSearch checks the one-pass tier map against a
// per-channel search of the layout on every topology mix.
func TestChannelTiersMatchLinearSearch(t *testing.T) {
	for _, tc := range []struct {
		org  system.Organization
		axis string
	}{
		{system.Table1Org1(), ""},
		{system.Table1Org2(), "jellyfish"},
		{system.Table1Org2(), "fattree+dragonfly"},
		{system.Table1Org1(), "jellyfish+dragonfly"},
	} {
		org := tc.org
		if tc.axis != "" {
			if err := system.ApplyTopologyAxis(&org, tc.axis); err != nil {
				t.Fatal(err)
			}
		}
		sim, err := New(Config{Org: org, Par: units.Default(), LambdaG: 1e-4, Measure: 1})
		if err != nil {
			t.Fatal(err)
		}
		tiers := sim.channelTiers()
		var counts [numTiers]int
		for c, tier := range tiers {
			if want := linearTier(sim, int32(c)); Tier(tier) != want {
				t.Fatalf("%s %s: channel %d in tier %v, want %v", system.Format(org), tc.axis, c, Tier(tier), want)
			}
			counts[tier]++
		}
		for i, n := range counts {
			if n == 0 {
				t.Errorf("%s %s: tier %v has no channels", system.Format(org), tc.axis, Tier(i))
			}
		}
	}
}
