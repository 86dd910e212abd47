package system

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"mcnet/internal/topo"
)

// icn2Levels returns n_c of a system whose ICN2 is the default fat tree.
func icn2Levels(s *System) int { return s.ICN2Net.(*topo.FatTree).Levels() }

func TestTable1Org1MatchesPaper(t *testing.T) {
	s := MustNew(Table1Org1())
	if s.TotalNodes() != 1120 {
		t.Errorf("N = %d, want 1120", s.TotalNodes())
	}
	if s.C() != 32 {
		t.Errorf("C = %d, want 32", s.C())
	}
	if s.Ports != 8 {
		t.Errorf("m = %d, want 8", s.Ports)
	}
	if icn2Levels(s) != 2 {
		t.Errorf("n_c = %d, want 2 (2·4² = 32)", icn2Levels(s))
	}
	if !s.ICN2Exact() {
		t.Error("org 1 should exactly fill its ICN2 tree")
	}
	// Per-spec node counts: n_i ∈ {1,2,3} → N_i ∈ {8,32,128}.
	wantNodes := map[int]int{1: 8, 2: 32, 3: 128}
	for _, c := range s.Clusters {
		if c.Nodes != wantNodes[c.Levels] {
			t.Errorf("cluster %d (n_i=%d): N_i = %d, want %d", c.Index, c.Levels, c.Nodes, wantNodes[c.Levels])
		}
	}
}

func TestTable1Org2MatchesPaper(t *testing.T) {
	s := MustNew(Table1Org2())
	if s.TotalNodes() != 544 {
		t.Errorf("N = %d, want 544", s.TotalNodes())
	}
	if s.C() != 16 {
		t.Errorf("C = %d, want 16", s.C())
	}
	if s.Ports != 4 {
		t.Errorf("m = %d, want 4", s.Ports)
	}
	if icn2Levels(s) != 3 {
		t.Errorf("n_c = %d, want 3 (2·2³ = 16)", icn2Levels(s))
	}
	if !s.ICN2Exact() {
		t.Error("org 2 should exactly fill its ICN2 tree")
	}
	wantNodes := map[int]int{3: 16, 4: 32, 5: 64}
	for _, c := range s.Clusters {
		if c.Nodes != wantNodes[c.Levels] {
			t.Errorf("cluster %d (n_i=%d): N_i = %d, want %d", c.Index, c.Levels, c.Nodes, wantNodes[c.Levels])
		}
	}
}

func TestPOutEquation13(t *testing.T) {
	s := MustNew(Table1Org1())
	for i, c := range s.Clusters {
		want := float64(1120-c.Nodes) / float64(1119)
		if got := s.POut(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("POut(%d) = %v, want %v", i, got, want)
		}
		if got := s.POut(i); got <= 0 || got >= 1 {
			t.Errorf("POut(%d) = %v outside (0,1)", i, got)
		}
	}
	// Smaller clusters send a larger fraction of traffic outside.
	small, large := -1, -1
	for i, c := range s.Clusters {
		if c.Nodes == 8 && small < 0 {
			small = i
		}
		if c.Nodes == 128 && large < 0 {
			large = i
		}
	}
	if !(s.POut(small) > s.POut(large)) {
		t.Errorf("POut should decrease with cluster size: small=%v large=%v", s.POut(small), s.POut(large))
	}
}

func TestNodeMappingRoundTrip(t *testing.T) {
	for _, org := range []Organization{Table1Org1(), Table1Org2()} {
		s := MustNew(org)
		for g := 0; g < s.TotalNodes(); g++ {
			ci, local := s.ClusterOf(g)
			if local < 0 || local >= s.Clusters[ci].Nodes {
				t.Fatalf("%s: node %d mapped to out-of-range local %d in cluster %d", org.Name, g, local, ci)
			}
			if back := s.GlobalNode(ci, local); back != g {
				t.Fatalf("%s: roundtrip %d → (%d,%d) → %d", org.Name, g, ci, local, back)
			}
		}
	}
}

func TestClusterOfPanicsOutOfRange(t *testing.T) {
	s := MustNew(Table1Org2())
	defer func() {
		if recover() == nil {
			t.Error("ClusterOf(N) did not panic")
		}
	}()
	s.ClusterOf(s.TotalNodes())
}

func TestICN2RouteDistExactOrgsMatchEq4(t *testing.T) {
	for _, org := range []Organization{Table1Org1(), Table1Org2()} {
		s := MustNew(org)
		got := s.ICN2RouteDist()
		want := s.ICN2Net.(*topo.FatTree).ProbJ()
		if len(got) != 2*len(want)-1 {
			t.Fatalf("%s: length %d, want %d", org.Name, len(got), 2*len(want)-1)
		}
		for h := range want {
			if math.Abs(got[2*h]-want[h]) > 1e-12 {
				t.Errorf("%s: P(h=%d) = %v, Eq. 4 gives %v", org.Name, h, got[2*h], want[h])
			}
		}
	}
}

// TestICN2RouteDistIsTheEnumerationWhenExact: an exactly filled ICN2
// answers with its topology's own RouteDist, which must be bit-identical
// to counting RouteLen over every ordered pair of distinct clusters, the
// enumeration a partially filled ICN2 still runs.
func TestICN2RouteDistIsTheEnumerationWhenExact(t *testing.T) {
	for _, spec := range []string{
		"org1", "org2", "m=4:16x1", "m=4:64x1", "m=4:2x2,2x3", "m=8:8x1",
		"m=4@icn2topo=dragonfly:6x1", "m=8@icn2topo=dragonfly:72x1",
	} {
		org, err := ParseOrganization(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(org)
		if !s.ICN2Exact() {
			t.Fatalf("%s: ICN2 not exactly filled (C=%d of %d terminals)", spec, s.C(), s.ICN2Net.Nodes())
		}
		c := s.C()
		want := make([]float64, s.ICN2Net.MaxRouteLen()+1)
		for i := 0; i < c; i++ {
			for v := 0; v < c; v++ {
				if i != v {
					want[s.ICN2Net.RouteLen(i, v)]++
				}
			}
		}
		for d := range want {
			want[d] /= float64(c * (c - 1))
		}
		got := s.ICN2RouteDist()
		if len(got) != len(want) {
			t.Fatalf("%s: %d route lengths, the enumeration has %d", spec, len(got), len(want))
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Errorf("%s: P(d=%d) = %v, the enumeration gives %v", spec, d, got[d], want[d])
			}
		}
	}
}

func TestICN2RouteDistPartiallyPopulated(t *testing.T) {
	// 5 clusters on an m=4 ICN2 require n_c=2 (capacity 8), partially filled.
	s := MustNew(Organization{
		Name:  "partial",
		Ports: 4,
		Specs: []ClusterSpec{{Count: 5, Levels: 1}},
	})
	if s.ICN2Exact() {
		t.Fatal("5 clusters should not exactly fill an m=4 ICN2")
	}
	p := s.ICN2RouteDist()
	var sum float64
	for d, v := range p {
		if d%2 == 0 {
			sum += v
		} else if v != 0 {
			t.Errorf("P(d=%d) = %v, want 0: fat-tree routes cross 2h channels", d, v)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("ΣP(h) = %v, want 1", sum)
	}
	if p[0] != 0 {
		t.Errorf("P(h=0) = %v, want 0", p[0])
	}
}

func TestRateFactors(t *testing.T) {
	s := MustNew(Organization{
		Name:  "hetero-rate",
		Ports: 4,
		Specs: []ClusterSpec{
			{Count: 2, Levels: 1, RateFactor: 2},
			{Count: 2, Levels: 1}, // defaults to 1
		},
	})
	if s.Clusters[0].RateFactor != 2 || s.Clusters[3].RateFactor != 1 {
		t.Errorf("rate factors = %v, %v; want 2, 1", s.Clusters[0].RateFactor, s.Clusters[3].RateFactor)
	}
}

func TestNewRejectsBadOrganizations(t *testing.T) {
	bad := []Organization{
		{Name: "odd ports", Ports: 5, Specs: []ClusterSpec{{Count: 2, Levels: 1}}},
		{Name: "no specs", Ports: 4},
		{Name: "zero count", Ports: 4, Specs: []ClusterSpec{{Count: 0, Levels: 1}}},
		{Name: "bad levels", Ports: 4, Specs: []ClusterSpec{{Count: 2, Levels: 0}}},
		{Name: "single cluster", Ports: 4, Specs: []ClusterSpec{{Count: 1, Levels: 1}}},
		{Name: "negative rate", Ports: 4, Specs: []ClusterSpec{{Count: 2, Levels: 1, RateFactor: -1}}},
	}
	for _, org := range bad {
		if _, err := New(org); err == nil {
			t.Errorf("%s: accepted", org.Name)
		}
	}
}

// TestNewRejectsHugeClusterCounts: an organization with more clusters than
// any ICN2 hosts is rejected before a single cluster is materialized, so
// the rejection costs the same at any count, and a count sum past the int
// range saturates instead of wrapping.
func TestNewRejectsHugeClusterCounts(t *testing.T) {
	for _, spec := range []string{
		"m=4:2000000000x1",
		"m=4@icn2topo=dragonfly:2000000000x1",
		"m=2:2000000000x1",
		"m=4:4611686018427387904x1,4611686018427387904x1,4611686018427387904x1",
	} {
		org, err := ParseOrganization(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = New(org)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadOrganization) || !strings.Contains(err.Error(), "ICN2") {
			t.Errorf("%s: err = %v, want an ICN2 rejection", spec, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("%s: allocated %d bytes before the rejection", spec, b)
		}
	}
}

func TestMustNewPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew of invalid org did not panic")
		}
	}()
	MustNew(Organization{Ports: 3})
}

func TestUniformOrganization(t *testing.T) {
	s := MustNew(Uniform("u", 4, 8, 2))
	if s.C() != 8 || s.TotalNodes() != 8*8 {
		t.Errorf("uniform org: C=%d N=%d, want 8, 64", s.C(), s.TotalNodes())
	}
	for i := range s.Clusters {
		if s.POut(i) != s.POut(0) {
			t.Error("uniform org should have identical POut everywhere")
		}
	}
}

func TestSummaryMentionsKeyNumbers(t *testing.T) {
	sum := MustNew(Table1Org1()).Summary()
	for _, frag := range []string{"N=1120", "C=32", "m=8", "12 clusters", "16 clusters", "4 clusters", "ICN2=8-port 2-tree"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("Summary missing %q:\n%s", frag, sum)
		}
	}
}
