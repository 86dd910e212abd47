package mcsim

import (
	"math"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
)

func TestChannelStatsGroupsCoverEveryChannel(t *testing.T) {
	s, err := New(smallConfig(0.001, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	stats := s.ChannelStats()
	if len(stats) != int(numChannelGroups) {
		t.Fatalf("%d groups, want %d", len(stats), numChannelGroups)
	}
	total := 0
	for _, st := range stats {
		total += st.Channels
		if st.MeanUtilization < 0 || st.MeanUtilization > 1 ||
			st.MaxUtilization < st.MeanUtilization-1e-12 || st.MaxUtilization > 1 {
			t.Errorf("%v: implausible utilizations %+v", st.Group, st)
		}
	}
	if total != s.Network().Channels() {
		t.Errorf("groups cover %d channels, network has %d", total, s.Network().Channels())
	}
	// Channel count per group is structural: verify against the topology.
	sys := s.System()
	var icn1Node, icn1Sw, conc int
	for _, c := range sys.Clusters {
		icn1Node += 2 * c.ECN1Net.Nodes()
		icn1Sw += c.ECN1Net.Channels() - 2*c.ECN1Net.Nodes()
		conc += 2 * c.ECN1Net.Roots()
	}
	conc += 2 * sys.ICN2Net.Nodes() // concentrator↔ICN2 injection/ejection links
	if stats[GroupICN1Node].Channels != icn1Node {
		t.Errorf("ICN1 node channels = %d, want %d", stats[GroupICN1Node].Channels, icn1Node)
	}
	if stats[GroupICN1Switch].Channels != icn1Sw {
		t.Errorf("ICN1 switch channels = %d, want %d", stats[GroupICN1Switch].Channels, icn1Sw)
	}
	if stats[GroupECN1Node].Channels != icn1Node {
		t.Errorf("ECN1 node channels = %d, want %d", stats[GroupECN1Node].Channels, icn1Node)
	}
	if stats[GroupConcentrator].Channels != conc {
		t.Errorf("concentrator channels = %d, want %d", stats[GroupConcentrator].Channels, conc)
	}
	if want := sys.ICN2Net.Channels() - 2*sys.ICN2Net.Nodes(); stats[GroupICN2].Channels != want {
		t.Errorf("ICN2 channels = %d, want %d", stats[GroupICN2].Channels, want)
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
	got := s.ChannelStats()[GroupConcentrator].MaxUtilization
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("max concentrator utilization = %v, Eq. 33 load predicts ≈%v", got, want)
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

func TestFormatChannelStats(t *testing.T) {
	s, err := New(smallConfig(0.001, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out := s.FormatChannelStats()
	for _, g := range []string{"ICN1 node", "ICN1 switch", "ECN1 node", "ECN1 switch", "concentrator", "ICN2"} {
		if !containsFold(out, g) {
			t.Errorf("formatted stats missing group %q:\n%s", g, out)
		}
	}
}

func containsFold(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			match := true
			for j := 0; j < len(needle); j++ {
				a, b := haystack[i+j], needle[j]
				if a >= 'A' && a <= 'Z' {
					a += 'a' - 'A'
				}
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
				}
				if a != b {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	})()
}

func TestGroupStrings(t *testing.T) {
	for g := ChannelGroup(0); g < numChannelGroups; g++ {
		if g.String() == "unknown" {
			t.Errorf("group %d has no name", g)
		}
	}
	if ChannelGroup(99).String() != "unknown" {
		t.Error("out-of-range group should be unknown")
	}
}
