package topo

import (
	"math"
	"slices"
	"testing"
)

// FuzzParseTopology hammers the @topo=/axis spec grammar: any accepted
// input must format canonically and re-parse to the identical pair
// (parse↔format round trip), and parsing must never panic on garbage,
// overflow seeds or exotic shapes.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"", "fattree", "jellyfish", "jellyfish.s7", "jellyfish.s0",
		"dragonfly", "fattree+dragonfly", "jellyfish.s3+dragonfly",
		"+dragonfly", "jellyfish+", "a+b+c", "jellyfish.s18446744073709551615",
		"jellyfish.s18446744073709551616", "jellyfish.s+1", "jellyfish.sNaN",
		"jellyfish.s1e9", "fattree+fattree", "FATTREE", "fattree ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cl, gl, err := ParseAxis(text)
		if err != nil {
			return
		}
		canon := FormatAxis(cl, gl)
		cl2, gl2, err := ParseAxis(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, text, err)
		}
		if cl2 != cl || gl2 != gl {
			t.Fatalf("round trip drifted: %q → (%+v,%+v) → %q → (%+v,%+v)", text, cl, gl, canon, cl2, gl2)
		}
		if again := FormatAxis(cl2, gl2); again != canon {
			t.Fatalf("format not idempotent: %q vs %q", canon, again)
		}
		// Single specs must round-trip through their own grammar too.
		if spec, err := ParseSpec(text); err == nil {
			spec2, err := ParseSpec(spec.String())
			if err != nil || spec2 != spec {
				t.Fatalf("spec round trip drifted: %q → %+v → %q → (%+v, %v)", text, spec, spec.String(), spec2, err)
			}
		}
	})
}

// bfsDistances is the reference the bit-parallel distance table must
// match: a plain BFS from every switch over adjacency rebuilt from the edge
// list, with −1 for unreachable pairs.
func bfsDistances(j *Jellyfish) []int32 {
	S := j.switches
	adj := make([][]int32, S)
	for _, e := range j.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := make([]int32, S*S)
	for a := 0; a < S; a++ {
		row := dist[a*S : (a+1)*S]
		for i := range row {
			row[i] = -1
		}
		row[a] = 0
		for queue := []int32{int32(a)}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, v := range adj[u] {
				if row[v] < 0 {
					row[v] = row[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// referenceRouteDist aggregates a switch-pair distance table into the
// route-length distribution over uniform ordered node pairs, its mean and
// the longest route, pair by pair: the histogram construction counts
// inside its BFS must match it bit for bit.
func referenceRouteDist(nodes, switches int, dist []int32) (routeDist []float64, avg float64, maxRoute int) {
	S := switches
	maxRoute = 2
	for _, d := range dist {
		maxRoute = max(maxRoute, int(d)+2)
	}
	at := make([]int64, S)
	for i := 0; i < nodes; i++ {
		at[i%S]++
	}
	counts := make([]int64, maxRoute+1)
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			var pairs int64
			if a == b {
				pairs = at[a] * (at[a] - 1)
			} else {
				pairs = at[a] * at[b]
			}
			if pairs > 0 {
				counts[int(dist[a*S+b])+2] += pairs
			}
		}
	}
	routeDist = make([]float64, len(counts))
	denom := float64(nodes) * float64(nodes-1)
	for d, c := range counts {
		routeDist[d] = float64(c) / denom
		avg += float64(d) * routeDist[d]
	}
	return routeDist, avg, maxRoute
}

// FuzzJellyfishDistances checks, for fuzzer-chosen budgets and wiring seeds
// across switch counts on both sides of the 64-source word boundaries, that
// construction builds no distance table; that the table the first route
// builds matches a plain BFS; that the route-length distribution, its mean
// and MaxRouteLen counted at construction match the table's, bit for bit;
// and that the routes are shortest paths of those lengths.
func FuzzJellyfishDistances(f *testing.F) {
	f.Add(uint16(16), uint8(20), uint8(4), uint64(0))
	f.Add(uint16(1), uint8(1), uint8(1), uint64(7))
	f.Add(uint16(64), uint8(64), uint8(5), uint64(1))
	f.Add(uint16(65), uint8(65), uint8(4), uint64(2))
	f.Add(uint16(64), uint8(144), uint8(4), uint64(0))
	f.Add(uint16(200), uint8(129), uint8(6), uint64(3))
	// 17 nodes on 21 two-port switches: the swap repair revisits an edge
	// list, so construction must refuse the budget instead of looping.
	f.Add(uint16(16), uint8(20), uint8(1), uint64(0))
	// 66 nodes on one seven-port switch: more nodes than ports is refused.
	f.Add(uint16(65), uint8(0), uint8(38), uint64(25))
	f.Fuzz(func(t *testing.T, nodes uint16, switches, ports uint8, seed uint64) {
		n, s, p := 1+int(nodes%512), 1+int(switches), 1+int(ports%16)
		j, err := newJellyfish(n, s, p, seed)
		if err != nil {
			t.Skip()
		}
		if j.dist != nil {
			t.Fatalf("%s: construction built the distance table", j)
		}
		j.paths()
		want := bfsDistances(j)
		if !slices.Equal(j.dist, want) {
			t.Fatalf("%s: bit-parallel distances differ from BFS", j)
		}
		dist, avg, maxRoute := referenceRouteDist(n, s, want)
		if got := j.RouteDist(); len(got) != len(dist) || !slices.EqualFunc(got, dist, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("%s: route-length distribution %v, the distance table's %v", j, got, dist)
		}
		if math.Float64bits(j.AvgDistance()) != math.Float64bits(avg) || j.MaxRouteLen() != maxRoute {
			t.Fatalf("%s: mean route %v, longest %d; the distance table's %v, %d", j, j.AvgDistance(), j.MaxRouteLen(), avg, maxRoute)
		}
		if err := j.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	})
}
