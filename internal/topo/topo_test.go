package topo

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"mcnet/internal/routing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		out  string
	}{
		{"", Spec{}, "fattree"},
		{"fattree", Spec{}, "fattree"},
		{"jellyfish", Spec{Kind: KindJellyfish}, "jellyfish"},
		{"jellyfish.s7", Spec{Kind: KindJellyfish, Seed: 7}, "jellyfish.s7"},
		{"jellyfish.s0", Spec{Kind: KindJellyfish}, "jellyfish"},
		{"dragonfly", Spec{Kind: KindDragonfly}, "dragonfly"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if s := got.String(); s != c.out {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, s, c.out)
		}
	}
	for _, bad := range []string{"torus", "jellyfish.s", "jellyfish.s-1", "jellyfish.sNaN", "jellyfish.s99999999999999999999999", "Fattree", "fattree "} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestParseAxis(t *testing.T) {
	cases := []struct {
		in      string
		out     string
		wantErr bool
	}{
		{"", "", false},
		{"fattree", "", false},
		{"fattree+fattree", "", false},
		{"jellyfish", "jellyfish", false},
		{"jellyfish.s3", "jellyfish.s3", false},
		{"fattree+dragonfly", "fattree+dragonfly", false},
		{"+dragonfly", "fattree+dragonfly", false},
		{"jellyfish+dragonfly", "jellyfish+dragonfly", false},
		{"dragonfly", "", true},         // dragonfly is global-only
		{"fattree+jellyfish", "", true}, // jellyfish is intra-only
		{"a+b+c", "", true},
		{"fattree+torus", "", true},
	}
	for _, c := range cases {
		cl, gl, err := ParseAxis(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseAxis(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseAxis(%q): %v", c.in, err)
		}
		if got := FormatAxis(cl, gl); got != c.out {
			t.Errorf("FormatAxis(ParseAxis(%q)) = %q, want %q", c.in, got, c.out)
		}
	}
}

// TestFatTreeContract runs the fat tree through the generic Topology
// checks and pins its route-length distribution to Eq. 4 re-indexed by
// channel count (RouteDist[2j] = P(j), odd entries zero) and its channel
// denominator to the paper's n·N.
func TestFatTreeContract(t *testing.T) {
	for _, shape := range []struct{ ports, levels int }{{4, 1}, {4, 3}, {8, 2}, {8, 3}} {
		for _, mode := range []routing.Mode{routing.Balanced, routing.RandomUp} {
			ft, err := NewFatTree(shape.ports, shape.levels, mode)
			if err != nil {
				t.Fatalf("NewFatTree(%d/%d): %v", shape.ports, shape.levels, err)
			}
			checkTopology(t, ft)
			if want := float64(ft.Levels()) * float64(ft.Nodes()); ft.EtaChannels() != want {
				t.Errorf("%v: EtaChannels %v != n·N = %v", ft, ft.EtaChannels(), want)
			}
			probJ := ft.ProbJ()
			for d, p := range ft.RouteDist() {
				want := 0.0
				if d%2 == 0 {
					want = probJ[d/2]
				}
				if p != want {
					t.Errorf("%v: RouteDist[%d] = %v, want %v", ft, d, p, want)
				}
			}
		}
	}
}

func checkTopology(t *testing.T, tp Topology) {
	t.Helper()
	if err := tp.CheckStructure(); err != nil {
		t.Fatalf("%s: %v", tp, err)
	}
	var sum, avg float64
	for d, p := range tp.RouteDist() {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("%s: RouteDist[%d] = %v", tp, d, p)
		}
		sum += p
		avg += float64(d) * p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("%s: RouteDist sums to %v", tp, sum)
	}
	if math.Abs(avg-tp.AvgDistance()) > 1e-9 {
		t.Fatalf("%s: AvgDistance %v, distribution mean %v", tp, tp.AvgDistance(), avg)
	}
	if tp.EtaChannels() != float64(tp.Channels())/2 {
		t.Fatalf("%s: EtaChannels %v != Channels/2 = %v", tp, tp.EtaChannels(), float64(tp.Channels())/2)
	}
	n := tp.Nodes()
	for src := 0; src < n; src += 7 {
		for dst := 0; dst < n; dst += 11 {
			if src == dst {
				continue
			}
			path := tp.AppendRoute(nil, 0, src, dst, 0)
			if len(path) != tp.RouteLen(src, dst) {
				t.Fatalf("%s: route %d→%d has %d channels, RouteLen %d", tp, src, dst, len(path), tp.RouteLen(src, dst))
			}
			if len(path) > tp.MaxRouteLen() {
				t.Fatalf("%s: route %d→%d exceeds MaxRouteLen", tp, src, dst)
			}
			if int(path[0]) != src {
				t.Fatalf("%s: route %d→%d starts on channel %d", tp, src, dst, path[0])
			}
			if int(path[len(path)-1]) != n+dst {
				t.Fatalf("%s: route %d→%d ends on channel %d", tp, src, dst, path[len(path)-1])
			}
			for _, c := range path[1 : len(path)-1] {
				if int(c) < 2*n {
					t.Fatalf("%s: route %d→%d crosses node channel %d mid-route", tp, src, dst, c)
				}
			}
			for _, c := range path {
				if int(c) < 0 || int(c) >= tp.Channels() {
					t.Fatalf("%s: route %d→%d uses out-of-range channel %d", tp, src, dst, c)
				}
			}
		}
	}
}

func TestJellyfish(t *testing.T) {
	for _, shape := range []struct{ ports, levels int }{{4, 1}, {4, 3}, {4, 5}, {8, 2}, {8, 3}} {
		jf, err := New(Spec{Kind: KindJellyfish}, shape.ports, shape.levels, routing.Balanced)
		if err != nil {
			t.Fatalf("jellyfish %d/%d: %v", shape.ports, shape.levels, err)
		}
		ft := mustFatTree(t, shape.ports, shape.levels, routing.Balanced)
		if jf.Nodes() != ft.Nodes() || jf.Switches() != ft.Switches() {
			t.Fatalf("jellyfish %d/%d: budget mismatch: N=%d/%d Nsw=%d/%d",
				shape.ports, shape.levels, jf.Nodes(), ft.Nodes(), jf.Switches(), ft.Switches())
		}
		checkTopology(t, jf)
	}
}

func TestJellyfishSeedsDiffer(t *testing.T) {
	a, err := New(Spec{Kind: KindJellyfish, Seed: 1}, 8, 3, routing.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Spec{Kind: KindJellyfish, Seed: 2}, 8, 3, routing.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	// Same budget, different wiring: at least one route should differ.
	same := true
	for src := 0; src < a.Nodes() && same; src++ {
		for dst := 0; dst < a.Nodes(); dst++ {
			if src == dst {
				continue
			}
			pa := a.AppendRoute(nil, 0, src, dst, 0)
			pb := b.AppendRoute(nil, 0, src, dst, 0)
			if len(pa) != len(pb) {
				same = false
				break
			}
			for i := range pa {
				if pa[i] != pb[i] {
					same = false
					break
				}
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical route sets")
	}
	// And the same seed must reproduce the same graph (cache aside).
	c, err := newJellyfish(a.Nodes(), a.Switches(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != a.String() {
		t.Errorf("seed 1 rebuilt differently: %s vs %s", c, a)
	}
}

// TestShapeBoundsRejectBeforeBuilding checks that New refuses, with
// errBadShape and before allocating anything of the shape's size, the
// shapes whose tables would break the budget: a 2-port tree of 50,000
// levels (its jellyfish would wire 99,999 switches over a 10 GB S² flag
// table), any tree deeper than maxTreeLevels, and jellyfish of more than
// maxJellyfishSwitches switches. Every tree with k ≥ 2 within maxTreeNodes
// stays valid.
func TestShapeBoundsRejectBeforeBuilding(t *testing.T) {
	jelly := Spec{Kind: KindJellyfish}
	for _, c := range []struct {
		spec Spec
		m, n int
	}{
		{Spec{}, 2, 50000}, {jelly, 2, 50000}, {Spec{}, 2, maxTreeLevels + 1}, {jelly, 4, 8}, {jelly, 4, 9},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New(c.spec, c.m, c.n, routing.Balanced)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errBadShape) {
			t.Errorf("%s m=%d n=%d: err = %v, want errBadShape", c.spec, c.m, c.n, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("%s m=%d n=%d: allocated %d bytes before the rejection", c.spec, c.m, c.n, b)
		}
	}
	for m := 4; m <= maxTreeNodes; m += 2 {
		for n := 1; nodeCount(m, n) <= maxTreeNodes; n++ {
			if err := checkShape(m, n); err != nil {
				t.Errorf("m=%d n=%d: %v", m, n, err)
			}
		}
	}
	if _, err := New(jelly, 4, 7, routing.Balanced); err != nil {
		t.Errorf("largest accepted jellyfish: %v", err)
	}
}

func TestDragonfly(t *testing.T) {
	for _, count := range []int{1, 2, 6, 7, 16, 32, 72, 73} {
		df, err := NewGlobal(Spec{Kind: KindDragonfly}, 8, count, routing.Balanced)
		if err != nil {
			t.Fatalf("dragonfly %d: %v", count, err)
		}
		if df.Nodes() < count {
			t.Fatalf("dragonfly %d: only %d terminals", count, df.Nodes())
		}
		checkTopology(t, df)
	}
}

// TestDragonflyRouteDistClosedForm compares the closed-form route-length
// distribution with an enumeration of RouteLen over all ordered terminal
// pairs, bit for bit, for every balance parameter t the terminal bound
// admits (the smallest count that needs t builds it).
func TestDragonflyRouteDistClosedForm(t *testing.T) {
	for bal, count := 1, 1; count <= maxTreeNodes; bal++ {
		df, err := newDragonfly(count)
		if err != nil {
			t.Fatalf("dragonfly %d: %v", count, err)
		}
		if df.t != bal {
			t.Fatalf("dragonfly %d: balance parameter %d, want %d", count, df.t, bal)
		}
		counts := make([]int64, df.MaxRouteLen()+1)
		for s := 0; s < df.Nodes(); s++ {
			for d := 0; d < df.Nodes(); d++ {
				if s != d {
					counts[df.RouteLen(s, d)]++
				}
			}
		}
		denom := float64(df.Nodes()) * float64(df.Nodes()-1)
		for l, c := range counts {
			if want := float64(c) / denom; math.Float64bits(df.routeDist[l]) != math.Float64bits(want) {
				t.Errorf("t=%d length %d: closed form %v, enumeration %v (%d pairs)", bal, l, df.routeDist[l], want, c)
			}
		}
		count = df.Nodes() + 1
	}
}

// TestDragonflyBound checks that a Dragonfly ICN2 refuses, with errBadShape
// and before sizing, more terminals than maxTreeNodes (the count a fat-tree
// ICN2 cannot host either), and that the largest accepted count builds.
func TestDragonflyBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewGlobal(Spec{Kind: KindDragonfly}, 8, maxTreeNodes+1, routing.Balanced)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errBadShape) {
		t.Errorf("dragonfly %d: err = %v, want errBadShape", maxTreeNodes+1, err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Errorf("dragonfly %d: allocated %d bytes before the rejection", maxTreeNodes+1, b)
	}
	if _, err := NewGlobal(Spec{}, 8, maxTreeNodes+1, routing.Balanced); !errors.Is(err, errBadShape) {
		t.Errorf("fat tree %d: err = %v, want errBadShape", maxTreeNodes+1, err)
	}
	df, err := newDragonfly(maxTreeNodes)
	if err != nil {
		t.Fatalf("dragonfly %d: %v", maxTreeNodes, err)
	}
	if df.Nodes() < maxTreeNodes {
		t.Fatalf("dragonfly %d: only %d terminals", maxTreeNodes, df.Nodes())
	}
}

func TestNewGlobalFatTreeMatchesSizing(t *testing.T) {
	// The fat-tree global sizing must reproduce the system layer's historic
	// rule: smallest n with 2(m/2)^n ≥ count.
	for _, c := range []struct{ ports, count, wantLevels int }{
		{8, 2, 1}, {8, 8, 1}, {8, 9, 2}, {8, 32, 2}, {8, 33, 3},
		{4, 4, 1}, {4, 5, 2}, {4, 16, 3},
	} {
		tp, err := NewGlobal(Spec{}, c.ports, c.count, routing.Balanced)
		if err != nil {
			t.Fatalf("NewGlobal(%d, %d): %v", c.ports, c.count, err)
		}
		ft := tp.(*FatTree)
		if ft.Levels() != c.wantLevels {
			t.Errorf("NewGlobal(%d, %d): levels %d, want %d", c.ports, c.count, ft.Levels(), c.wantLevels)
		}
	}
	// The largest count sizes without wrapping: the smallest n with
	// 2k^n past MaxInt.
	for _, c := range []struct{ ports, count, wantLevels int }{
		{4, math.MaxInt, 62}, {6, math.MaxInt, 40}, {1024, math.MaxInt, 7},
	} {
		if got := GlobalLevels(c.ports, c.count); got != c.wantLevels {
			t.Errorf("GlobalLevels(%d, MaxInt) = %d, want %d", c.ports, got, c.wantLevels)
		}
	}
}

// TestCacheReturnsSameInstance checks the one process-wide cache: equal
// keys share an instance, the typed fat-tree constructor shares New's
// entries, only the fat tree is keyed by routing mode, and different
// shapes never share.
func TestCacheReturnsSameInstance(t *testing.T) {
	must := func(tp Topology, err error) Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	jf := must(New(Spec{Kind: KindJellyfish}, 8, 2, routing.Balanced))
	if jf != must(New(Spec{Kind: KindJellyfish}, 8, 2, routing.Balanced)) {
		t.Error("cache returned distinct jellyfish instances for equal keys")
	}
	if jf != must(New(Spec{Kind: KindJellyfish}, 8, 2, routing.RandomUp)) {
		t.Error("jellyfish ignores the routing mode but was rebuilt per mode")
	}
	ft := must(New(Spec{}, 4, 2, routing.Balanced))
	if ft != must(NewFatTree(4, 2, routing.Balanced)) {
		t.Error("NewFatTree and New must share one fat tree per shape and mode")
	}
	if ft != must(NewGlobal(Spec{}, 4, 8, routing.Balanced)) {
		t.Error("a global fat tree of the same shape must share the cluster instance")
	}
	if ft == must(New(Spec{}, 4, 3, routing.Balanced)) || ft == must(New(Spec{}, 4, 2, routing.RandomUp)) {
		t.Error("different shape or mode must not share fat trees")
	}
}
