package topo

import (
	"math"
	"testing"
	"testing/quick"

	"mcnet/internal/routing"
)

// fatTreeShapes used across the tests: (m, n) pairs covering the paper's
// organizations (m=8 n∈{1,2,3}; m=4 n∈{3,4,5}) plus degenerate cases.
var fatTreeShapes = []struct{ m, n int }{
	{2, 1}, {2, 3}, {4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5},
	{6, 2}, {8, 1}, {8, 2}, {8, 3}, {12, 2},
}

func mustFatTree(t *testing.T, m, n int, mode routing.Mode) *FatTree {
	t.Helper()
	tr, err := NewFatTree(m, n, mode)
	if err != nil {
		t.Fatalf("NewFatTree(%d,%d,%v): %v", m, n, mode, err)
	}
	return tr
}

// distanceCounts enumerates, for a fixed source node, how many destinations
// have their NCA at each level; the result is independent of the source by
// symmetry.
func distanceCounts(f *FatTree, src int) []int64 {
	counts := make([]int64, f.Levels()+1)
	for dst := 0; dst < f.Nodes(); dst++ {
		if dst != src {
			counts[f.NCALevel(src, dst)]++
		}
	}
	return counts
}

func TestCountsMatchPaperFormulas(t *testing.T) {
	for _, s := range fatTreeShapes {
		tr := mustFatTree(t, s.m, s.n, routing.Balanced)
		if got, want := tr.Nodes(), nodeCount(s.m, s.n); got != want {
			t.Errorf("(%d,%d): Nodes = %d, want %d (Eq. 1)", s.m, s.n, got, want)
		}
		if got, want := tr.Switches(), switchCount(s.m, s.n); got != want {
			t.Errorf("(%d,%d): Switches = %d, want %d (Eq. 2)", s.m, s.n, got, want)
		}
	}
	// Spot values from the paper's organizations.
	if n := nodeCount(8, 3); n != 128 {
		t.Errorf("8-port 3-tree has %d nodes, want 128", n)
	}
	if n := nodeCount(4, 5); n != 64 {
		t.Errorf("4-port 5-tree has %d nodes, want 64", n)
	}
	if sw := switchCount(8, 2); sw != 12 {
		t.Errorf("8-port 2-tree has %d switches, want 12", sw)
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	for _, bad := range []struct{ m, n int }{{0, 1}, {3, 2}, {-2, 1}, {4, 0}, {4, -1}} {
		if _, err := newFatTree(bad.m, bad.n, routing.Balanced); err == nil {
			t.Errorf("newFatTree(%d,%d) accepted", bad.m, bad.n)
		}
	}
	// Oversized: int overflow, and node counts whose all-pairs route tables
	// would take gigabytes (m=4:1x15 crashed a sweep expansion out of
	// memory before the node bound).
	for _, big := range []struct{ m, n int }{{1024, 12}, {4, 15}, {4, 10}, {8, 6}, {64, 2}} {
		if _, err := newFatTree(big.m, big.n, routing.Balanced); err == nil {
			t.Errorf("oversized tree (%d,%d) accepted", big.m, big.n)
		}
	}
	if err := checkShape(4, 9); err != nil {
		t.Errorf("1024-node tree rejected: %v", err)
	}
}

func TestCheckStructure(t *testing.T) {
	for _, s := range fatTreeShapes {
		if err := mustFatTree(t, s.m, s.n, routing.Balanced).CheckStructure(); err != nil {
			t.Errorf("(%d,%d): %v", s.m, s.n, err)
		}
	}
}

func TestProbJSumsToOne(t *testing.T) {
	for _, s := range fatTreeShapes {
		tr := mustFatTree(t, s.m, s.n, routing.Balanced)
		var sum float64
		for _, p := range tr.ProbJ() {
			if p < 0 || p > 1 {
				t.Fatalf("(%d,%d): probability %v out of range", s.m, s.n, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("(%d,%d): ΣP(j) = %v, want 1", s.m, s.n, sum)
		}
	}
}

func TestProbJMatchesEnumeration(t *testing.T) {
	for _, s := range fatTreeShapes {
		tr := mustFatTree(t, s.m, s.n, routing.Balanced)
		p := tr.ProbJ()
		// By symmetry any source gives the same counts; test a few.
		for _, src := range []int{0, tr.Nodes() / 2, tr.Nodes() - 1} {
			counts := distanceCounts(tr, src)
			if counts[0] != 0 {
				t.Fatalf("(%d,%d): NCA level 0 counted for distinct nodes", s.m, s.n)
			}
			for j := 1; j <= tr.Levels(); j++ {
				want := p[j] * float64(tr.Nodes()-1)
				if math.Abs(float64(counts[j])-want) > 1e-9 {
					t.Errorf("(%d,%d) src=%d: count[%d] = %d, Eq. 4 gives %v",
						s.m, s.n, src, j, counts[j], want)
				}
			}
		}
	}
}

func TestAvgDistanceClosedFormMatchesSum(t *testing.T) {
	for _, s := range fatTreeShapes {
		tr := mustFatTree(t, s.m, s.n, routing.Balanced)
		sum := tr.AvgDistance()
		closed := tr.AvgDistanceClosedForm()
		if math.Abs(sum-closed) > 1e-9 {
			t.Errorf("(%d,%d): Eq.8 sum = %v, closed form = %v", s.m, s.n, sum, closed)
		}
		// d_avg is bounded by the tree diameter 2n and is at least 2.
		if sum < 2 || sum > float64(2*tr.Levels()) {
			t.Errorf("(%d,%d): d_avg = %v outside [2, 2n]", s.m, s.n, sum)
		}
	}
}

func TestNCALevelProperties(t *testing.T) {
	tr := mustFatTree(t, 4, 3, routing.Balanced)
	n := tr.Nodes()
	for a := 0; a < n; a++ {
		if tr.NCALevel(a, a) != 0 {
			t.Fatalf("NCALevel(%d,%d) != 0", a, a)
		}
		for b := a + 1; b < n; b++ {
			j, j2 := tr.NCALevel(a, b), tr.NCALevel(b, a)
			if j != j2 {
				t.Fatalf("NCALevel not symmetric: (%d,%d)=%d, (%d,%d)=%d", a, b, j, b, a, j2)
			}
			if j < 1 || j > tr.Levels() {
				t.Fatalf("NCALevel(%d,%d) = %d out of range", a, b, j)
			}
			// j == 1 iff the two nodes share a leaf switch.
			leafA, _ := tr.leafOf(a)
			leafB, _ := tr.leafOf(b)
			if (j == 1) != (leafA == leafB) {
				t.Fatalf("NCALevel(%d,%d) = %d inconsistent with leaves %+v/%+v", a, b, j, leafA, leafB)
			}
		}
	}
}

func TestNodeDigitReconstruction(t *testing.T) {
	tr := mustFatTree(t, 6, 3, routing.Balanced)
	for x := 0; x < tr.Nodes(); x++ {
		rebuilt, mul := 0, 1
		for i := 1; i <= tr.Levels(); i++ {
			rebuilt += tr.nodeDigit(x, i) * mul
			mul *= tr.radix(i)
		}
		if rebuilt != x {
			t.Fatalf("digits of %d rebuild to %d", x, rebuilt)
		}
	}
}

func TestChannelRoundTrip(t *testing.T) {
	for _, s := range fatTreeShapes {
		tr := mustFatTree(t, s.m, s.n, routing.Balanced)
		seen := make(map[int]bool)
		total := 0
		// Enumerate all channels through their constructors and check the
		// decoder agrees.
		for x := 0; x < tr.Nodes(); x++ {
			up, down := tr.nodeUpChannel(x), tr.nodeDownChannel(x)
			for _, c := range []int{up, down} {
				if seen[c] {
					t.Fatalf("(%d,%d): duplicate channel id %d", s.m, s.n, c)
				}
				seen[c] = true
				total++
			}
			if info := tr.channel(up); info.Kind != ChanNodeUp || info.Node != x {
				t.Fatalf("(%d,%d): decode(%d) = %+v, want node-up %d", s.m, s.n, up, info, x)
			}
			if info := tr.channel(down); info.Kind != ChanNodeDown || info.Node != x {
				t.Fatalf("(%d,%d): decode(%d) = %+v, want node-down %d", s.m, s.n, down, info, x)
			}
		}
		for l := 1; l < tr.Levels(); l++ {
			for idx := 0; idx < tr.LevelSize(l); idx++ {
				sw := tr.switchAt(l, idx)
				for q := 0; q < tr.k; q++ {
					for _, c := range []int{tr.upChannel(sw, q), tr.downChannel(sw, q)} {
						if seen[c] {
							t.Fatalf("(%d,%d): duplicate channel id %d", s.m, s.n, c)
						}
						seen[c] = true
						total++
						info := tr.channel(c)
						if info.Lower != sw || info.Port != q {
							t.Fatalf("(%d,%d): decode(%d) = %+v, want sw %+v port %d", s.m, s.n, c, info, sw, q)
						}
						parent, _ := tr.parent(sw, q)
						if info.Upper != parent {
							t.Fatalf("(%d,%d): decode(%d).Upper = %+v, want %+v", s.m, s.n, c, info.Upper, parent)
						}
					}
				}
			}
		}
		if total != tr.Channels() {
			t.Errorf("(%d,%d): enumerated %d channels, Channels() = %d", s.m, s.n, total, tr.Channels())
		}
		// Node channels must be exactly the first 2N, the layout rule every
		// topology shares.
		for c := 0; c < tr.Channels(); c++ {
			info := tr.channel(c)
			isNode := info.Kind == ChanNodeUp || info.Kind == ChanNodeDown
			if (c < 2*tr.Nodes()) != isNode {
				t.Fatalf("(%d,%d): channel %d of kind %v is on the wrong side of 2N", s.m, s.n, c, info.Kind)
			}
		}
	}
}

func TestChannelPanicsOutOfRange(t *testing.T) {
	tr := mustFatTree(t, 4, 2, routing.Balanced)
	for _, bad := range []int{-1, tr.Channels()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Channel(%d) did not panic", bad)
				}
			}()
			tr.channel(bad)
		}()
	}
}

func TestSubtreeSizesQuick(t *testing.T) {
	// Property: each level-l switch (l<n) is the leaf ancestor of exactly
	// k^l nodes; root switches cover all nodes.
	f := func(mRaw, nRaw, nodeRaw uint8) bool {
		m := int(mRaw%4+1) * 2 // 2,4,6,8
		n := int(nRaw%3) + 1   // 1..3
		tr, err := NewFatTree(m, n, routing.Balanced)
		if err != nil {
			return false
		}
		node := int(nodeRaw) % tr.Nodes()
		// Walk up from the node along up-port 0 and count descendants by
		// walking down all branches.
		sw, _ := tr.leafOf(node)
		for l := 1; l <= n; l++ {
			var count func(s treeSwitch) int
			count = func(s treeSwitch) int {
				if s.Level == 1 {
					return tr.radix(1)
				}
				total := 0
				for p := 0; p < tr.radix(s.Level); p++ {
					c, _ := tr.childSwitch(s, p)
					total += count(c)
				}
				return total
			}
			want := tr.kPow[l]
			if l == n {
				want = tr.Nodes()
			}
			if l == 1 && n == 1 {
				want = tr.Nodes()
			}
			if count(sw) != want {
				return false
			}
			if l < n {
				sw, _ = tr.parent(sw, 0)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFullBisectionBandwidth(t *testing.T) {
	// §2 of the paper: "the m-port n-tree is a full bisection bandwidth
	// topology". Width must be N/2 and the enumerated cut must agree.
	for _, s := range fatTreeShapes {
		tr := mustFatTree(t, s.m, s.n, routing.Balanced)
		if got := tr.BisectionWidth(); got != tr.Nodes()/2 {
			t.Errorf("(%d,%d): BisectionWidth = %d, want N/2 = %d", s.m, s.n, got, tr.Nodes()/2)
		}
		if err := tr.VerifyFullBisection(); err != nil {
			t.Errorf("(%d,%d): %v", s.m, s.n, err)
		}
	}
}

func TestStringDescribesShape(t *testing.T) {
	tr := mustFatTree(t, 8, 2, routing.Balanced)
	if got := tr.String(); got != "8-port 2-tree (N=32, Nsw=12)" {
		t.Errorf("String() = %q", got)
	}
}
