package topo

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// exactly like the fat tree's. Construction counts the route-length
// distribution the model reads with a BFS from 64 sources at a time, and
// keeps no switch-pair table: the distance table and the paths wait for
// the first route, RouteLen or CheckStructure.
//
// Channel layout: [0,N) node injection channels, [N,2N) node delivery
// channels, then two directed channels per undirected switch edge e —
// 2N+2e for low→high endpoint, 2N+2e+1 for high→low.
type Jellyfish struct {
	nodes    int
	switches int
	ports    int
	seed     uint64

	edges     [][2]int32 // undirected switch pairs, low endpoint first
	adj       [][]int32  // neighbor switches
	adjChan   [][]int32  // directed channel id of s→adj[s][k]
	routeDist []float64
	avgDist   float64
	maxRoute  int

	// built guards the route tables below: buildDist and buildPaths run
	// once, on the first AppendRoute, RouteLen or CheckStructure.
	built     sync.Once
	dist      []int32 // switch-pair hop distance, row-major
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
	if (nodes+switches-1)/switches > ports {
		return nil, fmt.Errorf("topo: jellyfish of %d nodes on %d switches attaches more nodes to a switch than its %d ports", nodes, switches, ports)
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
	// components, so they can not pre-exist, and the components merge
	// unless both old edges were bridges: then the swap only regroups the
	// four parts. The repair is deterministic, so once it meets an edge
	// list it has seen before it would cycle for ever; such a budget is
	// refused instead.
	var seen map[string]bool
	for {
		comp := j.components()
		if max := maxOf(comp); max == 0 {
			break // single component
		}
		key := make([]byte, 0, 8*len(j.edges))
		for _, e := range j.edges {
			key = binary.LittleEndian.AppendUint32(key, uint32(e[0]))
			key = binary.LittleEndian.AppendUint32(key, uint32(e[1]))
		}
		if seen[string(key)] {
			return fmt.Errorf("topo: jellyfish wiring for %d switches (seed %d) cannot be connected by edge swaps", j.switches, j.seed)
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[string(key)] = true
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

// components labels every switch with its connected-component id, the
// components numbered in order of their lowest switch, so id 0 is the
// component of switch 0. The returned slice holds the per-switch label and
// maxOf reports the highest label (0 when connected). A union-find forest
// merges the edges' endpoints; every root is its set's lowest switch.
func (j *Jellyfish) components() []int32 {
	S := j.switches
	ids := make([]int32, 2*S)
	parent, comp := ids[:S:S], ids[S:]
	for s := range parent {
		parent[s] = int32(s)
	}
	find := func(s int32) int32 {
		for parent[s] != s {
			parent[s] = parent[parent[s]]
			s = parent[s]
		}
		return s
	}
	for _, e := range j.edges {
		if a, b := find(e[0]), find(e[1]); a != b {
			parent[max(a, b)] = min(a, b)
		}
	}
	var next int32
	for s := range comp {
		if r := find(int32(s)); r != int32(s) {
			comp[s] = comp[r]
		} else {
			comp[s] = next
			next++
		}
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
// ids from the edge list, in edge-list order. Every list is a window of one
// backing array sized by the degrees, so the appends never reallocate.
func (j *Jellyfish) buildAdjacency() {
	S, E := j.switches, len(j.edges)
	start := make([]int32, S+1)
	for _, ed := range j.edges {
		start[ed[0]+1]++
		start[ed[1]+1]++
	}
	for s := 0; s < S; s++ {
		start[s+1] += start[s]
	}
	flat := make([]int32, 4*E)
	nbrs, chans := flat[:2*E:2*E], flat[2*E:]
	lists := make([][]int32, 2*S)
	j.adj, j.adjChan = lists[:S:S], lists[S:]
	for s := 0; s < S; s++ {
		lo, hi := start[s], start[s+1]
		j.adj[s], j.adjChan[s] = nbrs[lo:lo:hi], chans[lo:lo:hi]
	}
	base := int32(2 * j.nodes)
	for e, ed := range j.edges {
		a, b := ed[0], ed[1]
		j.adj[a] = append(j.adj[a], b)
		j.adjChan[a] = append(j.adjChan[a], base+2*int32(e))
		j.adj[b] = append(j.adj[b], a)
		j.adjChan[b] = append(j.adjChan[b], base+2*int32(e)+1)
	}
}

// bfs64 runs a bit-parallel BFS from every switch: one pass searches from
// 64 sources at once, bit k of a switch's word standing for source a0+k,
// so a level costs one OR per adjacency entry for all 64 searches. A switch
// joins level d of source a0+k when a neighbour was in level d−1 of that
// search and it was not yet seen; reach gets, per pass, level d ≥ 1 and
// switch v, the word w of the searches that reach v at d.
func (j *Jellyfish) bfs64(reach func(a0, d, v int, w uint64)) {
	S := j.switches
	words := make([]uint64, 3*S)
	seen, front, next := words[:S], words[S:2*S], words[2*S:]
	for a0 := 0; a0 < S; a0 += 64 {
		clear(seen)
		clear(front)
		for k := 0; k < 64 && a0+k < S; k++ {
			seen[a0+k], front[a0+k] = 1<<k, 1<<k
		}
		for d, grew := 1, true; grew; d++ {
			grew = false
			for v, nb := range j.adj {
				var w uint64
				for _, u := range nb {
					w |= front[u]
				}
				w &^= seen[v]
				next[v] = w
				if w == 0 {
					continue
				}
				seen[v] |= w
				grew = true
				reach(a0, d, v, w)
			}
			front, next = next, front
		}
	}
}

// buildDist fills the distance table, which the path build, RouteLen and
// CheckStructure read, from bfs64; unreachable pairs stay −1.
func (j *Jellyfish) buildDist() {
	S := j.switches
	j.dist = make([]int32, S*S)
	for i := range j.dist {
		j.dist[i] = -1
	}
	for a := 0; a < S; a++ {
		j.dist[a*S+a] = 0
	}
	j.bfs64(func(a0, d, v int, w uint64) {
		for ; w != 0; w &= w - 1 {
			j.dist[(a0+bits.TrailingZeros64(w))*S+v] = int32(d)
		}
	})
}

// paths builds the distance and path tables on the first call; every later
// call costs one atomic load.
func (j *Jellyfish) paths() {
	j.built.Do(func() {
		j.buildDist()
		j.buildPaths()
	})
}

// buildPaths freezes one shortest path per ordered switch pair into a flat
// arena, so AppendRoute is a bounds-checked copy with no allocation or
// per-hop branching. The distance table sizes every path, so the offsets
// are its running sum. Per source switch a BFS visits neighbours in
// adjacency order; when it first reaches v from u, v's path is u's path,
// already in the arena, followed by the channel u→v.
func (j *Jellyfish) buildPaths() {
	S := j.switches
	pathOff := make([]int32, S*S+1)
	off := int32(0)
	for i, d := range j.dist {
		pathOff[i] = off
		off += max(d, 0) // 0 for b == a, or unreachable
	}
	pathOff[S*S] = off
	arena := make([]int32, off)
	scratch := make([]int32, 2*S)
	// mark[v] == a+1 once the search from a has reached v.
	mark, queue := scratch[:S], scratch[S:]
	for a := 0; a < S; a++ {
		row, dist := pathOff[a*S:(a+1)*S], j.dist[a*S:(a+1)*S]
		stamp := int32(a + 1)
		mark[a] = stamp
		queue[0] = int32(a)
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			pu := arena[row[u] : row[u]+dist[u]]
			for k, v := range j.adj[u] {
				if mark[v] != stamp {
					mark[v] = stamp
					pv := arena[row[v] : row[v]+dist[v]]
					pv[copy(pv, pu)] = j.adjChan[u][k]
					queue[tail] = v
					tail++
				}
			}
		}
	}
	j.pathOff, j.pathArena = pathOff, arena
}

// buildRouteDist counts the route-length distribution over uniform ordered
// node pairs from bfs64, keeping no table. Node i sits on switch i mod S,
// so a switch carries q = N div S nodes, or q+1 if it is one of the first
// N mod S. A source word w that first reaches switch v at level d
// therefore adds nodes(v)·(q·|w| + |w ∩ heavy|) node pairs at route length
// d+2, heavy marking the sources with q+1 nodes; the pairs within one
// switch sit at length 2. MaxRouteLen is the deepest level over all switch
// pairs, empty switches included, plus 2.
func (j *Jellyfish) buildRouteDist() {
	q, r := int64(j.nodes/j.switches), j.nodes%j.switches
	counts := []int64{2: int64(r)*(q+1)*q + int64(j.switches-r)*q*(q-1)}
	j.bfs64(func(a0, d, v int, w uint64) {
		var heavy uint64
		if r > a0 {
			heavy = 1<<min(r-a0, 64) - 1
		}
		nv := q
		if v < r {
			nv++
		}
		if d+2 == len(counts) {
			counts = append(counts, 0)
		}
		counts[d+2] += nv * (q*int64(bits.OnesCount64(w)) + int64(bits.OnesCount64(w&heavy)))
	})
	j.maxRoute = len(counts) - 1
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
	j.paths()
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
