package topo

import (
	"fmt"
	"sync"

	"mcnet/internal/rng"
)

// defaultJellyfishSeed wires jellyfish topologies whose spec leaves Seed
// zero; fixing it keeps "jellyfish" a single reproducible graph.
const defaultJellyfishSeed = 0x6a656c6c79 // "jelly"

// Jellyfish is a seeded random-regular intra-cluster topology in the style
// of "Jellyfish: Networking Data Centers Randomly" / "High Throughput Data
// Center Topology Design" (Singla et al.): the same node and switch budget
// as the equivalent m-port n-tree, but with every switch port not used for
// node attachment wired into a random regular graph among the switches.
// Routing is single shortest path over an all-pairs table, precomputed on
// the first route, so the simulator's hot path is a zero-alloc arena copy
// exactly like the fat tree's. The switch-pair distances the route-length
// distribution reads are computed at construction.
//
// Channel layout: [0,N) node injection channels, [N,2N) node delivery
// channels, then two directed channels per undirected switch edge e —
// 2N+2e for low→high endpoint, 2N+2e+1 for high→low.
type Jellyfish struct {
	nodes    int
	switches int
	ports    int
	seed     uint64

	edges   [][2]int32 // undirected switch pairs, low endpoint first
	adj     [][]int32  // neighbor switches
	adjChan [][]int32  // directed channel id of s→adj[s][k]
	dist    []int32    // switch-pair hop distance, row-major
	// via[a*S+b] is the channel over which the search from switch a first
	// reached b; buildPaths walks it back and then drops it.
	via       []int32
	routeDist []float64
	avgDist   float64
	maxRoute  int

	// built guards the path tables below: buildPaths runs once, on the
	// first AppendRoute or CheckStructure.
	built     sync.Once
	pathOff   []int32 // per ordered switch pair: offset into pathArena
	pathArena []int32 // concatenated switch-path channel ids
}

// newJellyfish wires a random-regular graph over the given switch budget.
// Node i attaches to switch i mod switches; each switch offers its spare
// ports (ports − attached nodes, capped by switches−1) as network stubs.
func newJellyfish(nodes, switches, ports int, seed uint64) (*Jellyfish, error) {
	if nodes < 1 || switches < 1 || ports < 1 {
		return nil, fmt.Errorf("topo: jellyfish needs positive nodes/switches/ports (got %d/%d/%d)", nodes, switches, ports)
	}
	j := &Jellyfish{nodes: nodes, switches: switches, ports: ports, seed: seed}
	if seed == 0 {
		j.seed = defaultJellyfishSeed
	}
	attached := make([]int, switches)
	for i := 0; i < nodes; i++ {
		attached[i%switches]++
	}
	deg := make([]int, switches)
	for s := range deg {
		deg[s] = ports - attached[s]
		if deg[s] < 0 {
			deg[s] = 0
		}
		if deg[s] > switches-1 {
			deg[s] = switches - 1
		}
	}
	if switches > 1 {
		if err := j.wire(deg); err != nil {
			return nil, err
		}
	}
	j.buildAdjacency()
	j.buildDist()
	j.buildRouteDist()
	return j, nil
}

// wire pairs port stubs into a simple graph (no self loops, no parallel
// edges) using the seeded generator, then repairs connectivity with edge
// swaps. The construction is deterministic for a given (budget, seed).
func (j *Jellyfish) wire(deg []int) error {
	src := rng.New(j.seed)
	var stubs []int32
	for s, d := range deg {
		for k := 0; k < d; k++ {
			stubs = append(stubs, int32(s))
		}
	}
	S := j.switches
	used := make([]bool, S*S)
	hasEdge := func(a, b int32) bool { return used[int(a)*S+int(b)] }
	addEdge := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		used[int(a)*S+int(b)] = true
		used[int(b)*S+int(a)] = true
		j.edges = append(j.edges, [2]int32{a, b})
	}
	// Shuffle the stubs once, then pair greedily: position i seeks its
	// partner at the first later stub forming a valid edge. A stub with no
	// valid partner left is dropped (the graph stays near-regular).
	perm := src.Perm(len(stubs))
	list := make([]int32, len(stubs))
	for i, p := range perm {
		list[i] = stubs[p]
	}
	for i := 0; i+1 < len(list); {
		a := list[i]
		found := -1
		for k := i + 1; k < len(list); k++ {
			if b := list[k]; b != a && !hasEdge(a, b) {
				found = k
				break
			}
		}
		if found < 0 {
			// Drop stub a: overwrite with the last stub and retry slot i.
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			continue
		}
		list[i+1], list[found] = list[found], list[i+1]
		addEdge(a, list[i+1])
		i += 2
	}

	// Connectivity repair: while more than one component exists, swap one
	// edge (a,b) of the main component with one edge (c,d) of another into
	// the cross pair (a,c),(b,d) — both new edges bridge distinct
	// components, so they can not pre-exist and the components merge.
	for {
		comp := j.components()
		if max := maxOf(comp); max == 0 {
			break // single component
		}
		edgeIn := func(c int32) int {
			for e, ed := range j.edges {
				if comp[ed[0]] == c {
					return e
				}
			}
			return -1
		}
		e0, e1 := edgeIn(0), -1
		for s := range comp {
			if comp[s] != 0 {
				if e1 = edgeIn(comp[s]); e1 >= 0 {
					break
				}
			}
		}
		if e0 < 0 || e1 < 0 {
			return fmt.Errorf("topo: jellyfish wiring for %d switches (seed %d) left an unlinkable component", j.switches, j.seed)
		}
		a, b := j.edges[e0][0], j.edges[e0][1]
		c, d := j.edges[e1][0], j.edges[e1][1]
		used[int(a)*S+int(b)] = false
		used[int(b)*S+int(a)] = false
		used[int(c)*S+int(d)] = false
		used[int(d)*S+int(c)] = false
		last := len(j.edges) - 1
		hi, lo := e0, e1
		if hi < lo {
			hi, lo = lo, hi
		}
		j.edges[hi] = j.edges[last]
		j.edges = j.edges[:last]
		last--
		j.edges[lo] = j.edges[last]
		j.edges = j.edges[:last]
		addEdge(a, c)
		addEdge(b, d)
	}
	return nil
}

// components labels every switch with its connected-component id; id 0 is
// the component of switch 0. The returned slice holds the per-switch label
// and maxOf reports the highest label (0 when connected).
func (j *Jellyfish) components() []int32 {
	comp := make([]int32, j.switches)
	for i := range comp {
		comp[i] = -1
	}
	adj := make([][]int32, j.switches)
	for _, e := range j.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	var next int32
	var queue []int32
	for s := 0; s < j.switches; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp
}

func maxOf(xs []int32) int32 {
	var m int32
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// buildAdjacency derives neighbor lists and per-neighbor directed channel
// ids from the edge list.
func (j *Jellyfish) buildAdjacency() {
	j.adj = make([][]int32, j.switches)
	j.adjChan = make([][]int32, j.switches)
	base := int32(2 * j.nodes)
	for e, ed := range j.edges {
		a, b := ed[0], ed[1]
		j.adj[a] = append(j.adj[a], b)
		j.adjChan[a] = append(j.adjChan[a], base+2*int32(e))
		j.adj[b] = append(j.adj[b], a)
		j.adjChan[b] = append(j.adjChan[b], base+2*int32(e)+1)
	}
}

// buildDist runs BFS from every switch, visiting neighbours in adjacency
// order. The searches fill the distance table, which the route-length
// distribution, RouteLen and MaxRouteLen read, and record in via the
// channel over which each pair's search first reached its destination.
func (j *Jellyfish) buildDist() {
	S := j.switches
	j.dist, j.via = make([]int32, S*S), make([]int32, S*S)
	queue := make([]int32, S)
	for a := 0; a < S; a++ {
		row, via := j.dist[a*S:(a+1)*S], j.via[a*S:(a+1)*S]
		for i := range row {
			row[i] = -1
		}
		row[a] = 0
		queue[0] = int32(a)
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			for k, v := range j.adj[u] {
				if row[v] < 0 {
					row[v] = row[u] + 1
					via[v] = j.adjChan[u][k]
					queue[tail] = v
					tail++
				}
			}
		}
	}
	j.maxRoute = 2
	for _, d := range j.dist {
		if int(d)+2 > j.maxRoute {
			j.maxRoute = int(d) + 2
		}
	}
}

// paths builds the path tables on the first call; every later call costs
// one atomic load.
func (j *Jellyfish) paths() { j.built.Do(j.buildPaths) }

// buildPaths freezes one shortest path per ordered switch pair into a flat
// arena, so AppendRoute is a bounds-checked copy with no allocation or
// per-hop branching. The distance table's sum sizes the arena exactly, and
// each path is written straight into the arena by walking the via channels
// back from its destination.
func (j *Jellyfish) buildPaths() {
	S := j.switches
	total := 0
	for _, d := range j.dist {
		total += max(int(d), 0)
	}
	pathOff := make([]int32, S*S+1)
	arena := make([]int32, total)
	base := int32(2 * j.nodes)
	off := int32(0)
	for a := 0; a < S; a++ {
		row, via := j.dist[a*S:(a+1)*S], j.via[a*S:(a+1)*S]
		for b, d := range row {
			pathOff[a*S+b] = off
			if d <= 0 { // b == a, or unreachable
				continue
			}
			off += d
			p := arena[off-d : off]
			for at, i := b, d-1; i >= 0; i-- {
				c := via[at]
				p[i] = c
				// Channel base+2e+dir leaves switch edges[e][dir].
				e := c - base
				at = int(j.edges[e>>1][e&1])
			}
		}
	}
	pathOff[S*S] = off
	j.pathOff, j.pathArena, j.via = pathOff, arena, nil
}

// buildRouteDist aggregates the switch-pair distances into the route-length
// distribution over uniform ordered node pairs.
func (j *Jellyfish) buildRouteDist() {
	S := j.switches
	at := make([]int64, S)
	for i := 0; i < j.nodes; i++ {
		at[i%S]++
	}
	counts := make([]int64, j.maxRoute+1)
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			var pairs int64
			if a == b {
				pairs = at[a] * (at[a] - 1)
			} else {
				pairs = at[a] * at[b]
			}
			if pairs > 0 {
				counts[int(j.dist[a*S+b])+2] += pairs
			}
		}
	}
	j.routeDist = make([]float64, len(counts))
	denom := float64(j.nodes) * float64(j.nodes-1)
	for d, c := range counts {
		j.routeDist[d] = float64(c) / denom
		j.avgDist += float64(d) * j.routeDist[d]
	}
}

func (j *Jellyfish) Kind() string     { return KindJellyfish }
func (j *Jellyfish) Nodes() int       { return j.nodes }
func (j *Jellyfish) Switches() int    { return j.switches }
func (j *Jellyfish) Channels() int    { return 2*j.nodes + 2*len(j.edges) }
func (j *Jellyfish) MaxRouteLen() int { return j.maxRoute }

func (j *Jellyfish) RouteLen(src, dst int) int {
	if src == dst {
		return 0
	}
	return int(j.dist[(src%j.switches)*j.switches+dst%j.switches]) + 2
}

func (j *Jellyfish) AppendRoute(path []int32, base int32, src, dst int, sel uint64) []int32 {
	j.paths()
	path = append(path, base+int32(src))
	a, b := src%j.switches, dst%j.switches
	if a != b {
		off, end := j.pathOff[a*j.switches+b], j.pathOff[a*j.switches+b+1]
		for _, c := range j.pathArena[off:end] {
			path = append(path, base+c)
		}
	}
	return append(path, base+int32(j.nodes+dst))
}

func (j *Jellyfish) RouteDist() []float64 { return j.routeDist }
func (j *Jellyfish) AvgDistance() float64 { return j.avgDist }
func (j *Jellyfish) EtaChannels() float64 { return float64(j.nodes + len(j.edges)) }

// CheckStructure verifies the wiring invariants by enumeration: the graph
// is simple, symmetric and connected, port budgets are respected, channel
// ids are a bijection, and every frozen path is a valid walk of the right
// length.
func (j *Jellyfish) CheckStructure() error {
	S := j.switches
	degree := make([]int, S)
	seen := make(map[[2]int32]bool, len(j.edges))
	for _, e := range j.edges {
		a, b := e[0], e[1]
		if a == b {
			return fmt.Errorf("topo: jellyfish self loop at switch %d", a)
		}
		if a > b {
			return fmt.Errorf("topo: jellyfish edge %v not low-first", e)
		}
		if seen[e] {
			return fmt.Errorf("topo: jellyfish duplicate edge %v", e)
		}
		seen[e] = true
		degree[a]++
		degree[b]++
	}
	attached := make([]int, S)
	for i := 0; i < j.nodes; i++ {
		attached[i%S]++
	}
	for s := 0; s < S; s++ {
		if attached[s]+degree[s] > j.ports {
			return fmt.Errorf("topo: jellyfish switch %d uses %d+%d ports of %d", s, attached[s], degree[s], j.ports)
		}
	}
	if S > 1 {
		if c := j.components(); maxOf(c) != 0 {
			return fmt.Errorf("topo: jellyfish graph is disconnected")
		}
	}
	// Every frozen switch path must start at src's switch, chain channel by
	// channel, end at dst's switch and match the BFS distance.
	j.paths()
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			if a == b {
				continue
			}
			off, end := j.pathOff[a*S+b], j.pathOff[a*S+b+1]
			if int(end-off) != int(j.dist[a*S+b]) {
				return fmt.Errorf("topo: jellyfish path %d→%d has %d hops, distance %d", a, b, end-off, j.dist[a*S+b])
			}
			at := int32(a)
			for _, c := range j.pathArena[off:end] {
				e := int(c) - 2*j.nodes
				ed := j.edges[e/2]
				from, to := ed[0], ed[1]
				if e%2 == 1 {
					from, to = to, from
				}
				if from != at {
					return fmt.Errorf("topo: jellyfish path %d→%d leaves switch %d on channel from %d", a, b, at, from)
				}
				at = to
			}
			if at != int32(b) {
				return fmt.Errorf("topo: jellyfish path %d→%d ends at switch %d", a, b, at)
			}
		}
	}
	return nil
}

func (j *Jellyfish) String() string {
	return fmt.Sprintf("jellyfish (N=%d, Nsw=%d, E=%d, seed=%#x)", j.nodes, j.switches, len(j.edges), j.seed)
}
