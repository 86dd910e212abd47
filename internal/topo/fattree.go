package topo

import (
	"errors"
	"fmt"
	"sync"

	"mcnet/internal/routing"
)

// FatTree is the m-port n-tree used by every network in the paper (ICN1,
// ECN1 and ICN2): a fat tree built from fixed-arity m-port switches, with
//
//	N    = 2·(m/2)^n          processing nodes        (Eq. 1)
//	N_sw = (2n−1)·(m/2)^(n−1)  switches                (Eq. 2)
//
// It is realized as the extended generalized fat tree
// XGFT(n; k,…,k,2k; k,…,k) with k = m/2: switches at levels 1..n−1 have k
// children and k parents (m ports total); the n root switches have 2k = m
// children and no parents. This construction reproduces the node and switch
// counts above, has full bisection bandwidth, and gives the nearest-common-
// ancestor (NCA) level distribution of Eq. 4 under uniform traffic.
//
// # Labeling
//
// A node is a mixed-radix number x = x_1 + c_1·(x_2 + c_2·(…)) with digit
// radices c_1..c_n = k,…,k,2k. A level-l switch is a pair (suffix, y):
// `suffix` encodes the node digits x_{l+1}..x_n it has in common with every
// node below it, and y = (y_1..y_{l−1}) records which parent was chosen at
// each level on the way up. All adjacency is arithmetic on these labels — no
// adjacency lists are stored.
//
// # Channels
//
// Every directed link has a dense channel index in [0, 2nN):
//
//	[0, N)                     node→switch injection links
//	[N, 2N)                    switch→node ejection links
//	[2N, 2N+(n−1)N)            ascending switch→switch links, by level
//	[2N+(n−1)N, 2nN)           descending switch→switch links, by level
//
// # Routing
//
// Routes follow the up*/down* discipline of the instance's routing.Mode
// (fattree_route.go). The routes are precomputed into flat arenas on the
// first request for one, so the appenders are copies with no per-message
// work, and a tree only the analytic model reads (it reads the route-length
// distribution) never builds them.
type FatTree struct {
	ports  int // m
	levels int // n
	k      int // m/2
	nodes  int // 2k^n
	mode   routing.Mode

	kPow      []int // k^i for i in [0, levels]
	levelSize []int // switches at level l (index 1..levels)
	switches  int

	dist    []float64 // RouteDist: dist[2j] = P(j) of Eq. 4
	avgDist float64
	// rootsPow2 reports that Roots() is a power of two, so RootIndex masks.
	rootsPow2 bool

	// built guards the route tables below: buildTables runs once, on the
	// first AppendRoute, AppendUpToRoot or AppendDownFromRoot.
	built sync.Once
	// routes[src*nodes+dst] spans routeArena (Balanced mode only: the
	// RandomUp ascent depends on the per-message selector).
	routeOff   []int32
	routeArena []int32
	// upArena[(src*roots+y)*levels : +levels] is the ascent src → root y.
	upArena []int32
	// downArena[(y*nodes+dst)*levels : +levels] is the descent root y → dst.
	downArena []int32
}

// treeSwitch identifies a switch by level (1-based, 1 = leaf level, n =
// root level), suffix index and y index. See the FatTree comment for the
// meaning of the components.
type treeSwitch struct {
	Level  int
	Suffix int
	Y      int
}

// errBadShape reports an unconstructible m-port n-tree shape.
var errBadShape = errors.New("topo: invalid m-port n-tree shape")

// maxTreeNodes bounds the node count 2(m/2)^n of a buildable tree. A fat
// tree that routes precomputes a route for every ordered node pair, so its
// tables grow as N²·n: 94.4 MB for the m=4 9-tree, the deepest tree within
// the bound (71.3 MB of routes, 4.2 MB of offsets and 9.4 MB each of
// ascents and descents), and gigabytes a few levels beyond it.
const maxTreeNodes = 1 << 10

// maxTreeLevels bounds n at the depth of that m=4 9-tree, so every tree
// with k ≥ 2 within maxTreeNodes passes it. It is what bounds the 2-port
// trees: their N = 2 passes the node bound at any depth, while the
// equal-budget jellyfish of such a tree has 2n−1 switches.
const maxTreeLevels = 9

// maxJellyfishSwitches bounds the switch count S of a jellyfish, whose
// all-pairs tables grow as S²: the largest accepted one (m=4 n=7, 832
// switches) builds 21.7 MB of tables, while the next, m=4 n=8 with 1920
// switches, would build 127 MB.
const maxJellyfishSwitches = 1 << 10

// checkShape rejects shapes no m-port n-tree has (ports must be an even
// number ≥ 2 and levels ≥ 1) and shapes of more than maxTreeNodes nodes or
// maxTreeLevels levels.
func checkShape(ports, levels int) error {
	if ports < 2 || ports%2 != 0 {
		return fmt.Errorf("%w: ports m=%d must be even and ≥ 2", errBadShape, ports)
	}
	if levels < 1 {
		return fmt.Errorf("%w: levels n=%d must be ≥ 1", errBadShape, levels)
	}
	if levels > maxTreeLevels {
		return fmt.Errorf("%w: levels n=%d exceed %d", errBadShape, levels, maxTreeLevels)
	}
	k, nodes := ports/2, 2
	for i := 0; i < levels; i++ {
		if nodes > maxTreeNodes/k {
			return fmt.Errorf("%w: m=%d n=%d has more than %d nodes", errBadShape, ports, levels, maxTreeNodes)
		}
		nodes *= k
	}
	return nil
}

// nodeCount evaluates Eq. 1 without building a tree.
func nodeCount(ports, levels int) int {
	n := 2
	for i := 0; i < levels; i++ {
		n *= ports / 2
	}
	return n
}

// switchCount evaluates Eq. 2 without building a tree.
func switchCount(ports, levels int) int {
	n := 2*levels - 1
	for i := 0; i < levels-1; i++ {
		n *= ports / 2
	}
	return n
}

// NewFatTree returns the process-shared m-port n-tree of (ports, levels)
// routed under mode, building it on first use; its route tables wait for
// its first route.
func NewFatTree(ports, levels int, mode routing.Mode) (*FatTree, error) {
	key := cacheKey{kind: KindFatTree, ports: ports, size: levels, mode: mode}
	t, err := cached(key, func() (Topology, error) { return newFatTree(ports, levels, mode) })
	if err != nil {
		return nil, err
	}
	return t.(*FatTree), nil
}

func newFatTree(ports, levels int, mode routing.Mode) (*FatTree, error) {
	if err := checkShape(ports, levels); err != nil {
		return nil, err
	}
	k := ports / 2
	f := &FatTree{ports: ports, levels: levels, k: k, mode: mode}

	f.kPow = make([]int, levels+1)
	f.kPow[0] = 1
	for i := 1; i <= levels; i++ {
		f.kPow[i] = f.kPow[i-1] * k
	}
	f.nodes = 2 * f.kPow[levels]

	// A level-l switch has one of suffixes(l) digit suffixes x_{l+1}..x_n,
	// i.e. Π c_j for j > l with c_j = k except c_n = 2k, and one of k^(l−1)
	// parent choices y.
	f.levelSize = make([]int, levels+1)
	suffixes := 1
	for l := levels; l >= 1; l-- {
		f.levelSize[l] = suffixes * f.kPow[l-1]
		f.switches += f.levelSize[l]
		suffixes *= f.radix(l)
	}

	// A route with its NCA at level j crosses 2j channels (Eq. 4 re-indexed
	// by channel count): dist[2j] = P(j), odd entries zero.
	probJ := f.ProbJ()
	f.dist = make([]float64, 2*levels+1)
	for j, p := range probJ {
		f.dist[2*j] = p
		f.avgDist += 2 * float64(j) * p
	}
	roots := f.Roots()
	f.rootsPow2 = roots&(roots-1) == 0
	return f, nil
}

// radix returns c_l, the number of children of a level-l switch.
func (f *FatTree) radix(l int) int {
	if l == f.levels {
		return 2 * f.k
	}
	return f.k
}

func (f *FatTree) Kind() string { return KindFatTree }

// Levels returns n.
func (f *FatTree) Levels() int { return f.levels }

// Nodes returns the number of processing-node positions, N = 2(m/2)^n.
func (f *FatTree) Nodes() int { return f.nodes }

// Switches returns the total switch count, (2n−1)(m/2)^(n−1).
func (f *FatTree) Switches() int { return f.switches }

// LevelSize returns the number of switches at level l (1-based).
func (f *FatTree) LevelSize(l int) int { return f.levelSize[l] }

// Roots returns the number of root-level switches, (m/2)^(n−1).
func (f *FatTree) Roots() int { return f.levelSize[f.levels] }

// Channels returns the number of directed channels, 2nN.
func (f *FatTree) Channels() int { return 2 * f.levels * f.nodes }

func (f *FatTree) MaxRouteLen() int { return 2 * f.levels }

func (f *FatTree) RouteLen(src, dst int) int { return 2 * f.NCALevel(src, dst) }

func (f *FatTree) RouteDist() []float64 { return f.dist }

// AvgDistance returns d_avg of Eq. 8: the mean number of links crossed,
// Σ_j 2j·P(j).
func (f *FatTree) AvgDistance() float64 { return f.avgDist }

// EtaChannels is n·N, the channel count of the paper's Eqs. 10–12.
func (f *FatTree) EtaChannels() float64 { return float64(f.levels) * float64(f.nodes) }

// String describes the tree shape.
func (f *FatTree) String() string {
	return fmt.Sprintf("%d-port %d-tree (N=%d, Nsw=%d)", f.ports, f.levels, f.nodes, f.switches)
}

// nodeDigit returns digit x_i (1-based) of the node label.
func (f *FatTree) nodeDigit(node, i int) int {
	d := node
	for j := 1; j < i; j++ {
		d /= f.radix(j)
	}
	return d % f.radix(i)
}

// NCALevel returns the level of the nearest common ancestor of nodes a and
// b: the highest digit on which they differ. It returns 0 when a == b. A
// message between a and b crosses 2·NCALevel links.
func (f *FatTree) NCALevel(a, b int) int {
	level := 0
	for i := 1; a != b; i++ {
		if a%f.radix(i) != b%f.radix(i) {
			level = i
		}
		a /= f.radix(i)
		b /= f.radix(i)
	}
	return level
}

// switchIndex returns the within-level dense index of sw.
func (f *FatTree) switchIndex(sw treeSwitch) int {
	return sw.Suffix*f.kPow[sw.Level-1] + sw.Y
}

// switchAt returns the switch with within-level index idx at level l.
func (f *FatTree) switchAt(l, idx int) treeSwitch {
	return treeSwitch{Level: l, Suffix: idx / f.kPow[l-1], Y: idx % f.kPow[l-1]}
}

// leafOf returns the level-1 switch a node attaches to, and the switch's
// down-port occupied by the node. (For a 1-level tree the leaf radix is 2k,
// hence the use of radix(1) rather than k.)
func (f *FatTree) leafOf(node int) (treeSwitch, int) {
	r := f.radix(1)
	return treeSwitch{Level: 1, Suffix: node / r}, node % r
}

// childNode returns the node on down-port p of a leaf (level-1) switch.
func (f *FatTree) childNode(sw treeSwitch, p int) int {
	return sw.Suffix*f.radix(1) + p
}

// parent returns the parent reached through up-port q of sw, together with
// the parent's down-port that the link occupies. Only valid for
// sw.Level < n and 0 ≤ q < k.
func (f *FatTree) parent(sw treeSwitch, q int) (treeSwitch, int) {
	l := sw.Level
	r := f.radix(l + 1)
	return treeSwitch{Level: l + 1, Suffix: sw.Suffix / r, Y: sw.Y + q*f.kPow[l-1]}, sw.Suffix % r
}

// childSwitch returns the level-(l−1) switch on down-port p of sw (valid for
// sw.Level ≥ 2), together with the child's up-port that the link occupies.
func (f *FatTree) childSwitch(sw treeSwitch, p int) (treeSwitch, int) {
	l := sw.Level
	child := treeSwitch{Level: l - 1, Suffix: p + f.radix(l)*sw.Suffix, Y: sw.Y % f.kPow[l-2]}
	return child, sw.Y / f.kPow[l-2]
}

// nodeUpChannel returns the channel node→leaf-switch of the given node.
func (f *FatTree) nodeUpChannel(node int) int { return node }

// nodeDownChannel returns the channel leaf-switch→node of the given node.
func (f *FatTree) nodeDownChannel(node int) int { return f.nodes + node }

// upChannel returns the ascending channel from level-l switch sw through
// up-port q (valid for sw.Level < n).
func (f *FatTree) upChannel(sw treeSwitch, q int) int {
	return 2*f.nodes + (sw.Level-1)*f.nodes + f.switchIndex(sw)*f.k + q
}

// downChannel returns the descending channel of the same physical link as
// upChannel(sw, q): from the parent into level-l switch sw through the
// switch's up-port q.
func (f *FatTree) downChannel(sw treeSwitch, q int) int {
	return 2*f.nodes + (f.levels-1)*f.nodes + (sw.Level-1)*f.nodes + f.switchIndex(sw)*f.k + q
}

// ChannelKind classifies a directed fat-tree channel.
type ChannelKind int

const (
	// ChanNodeUp is a node→leaf-switch injection link.
	ChanNodeUp ChannelKind = iota
	// ChanNodeDown is a leaf-switch→node ejection link.
	ChanNodeDown
	// ChanUp is an ascending switch→switch link.
	ChanUp
	// ChanDown is a descending switch→switch link.
	ChanDown
)

// String names the channel kind.
func (k ChannelKind) String() string {
	switch k {
	case ChanNodeUp:
		return "node-up"
	case ChanNodeDown:
		return "node-down"
	case ChanUp:
		return "up"
	case ChanDown:
		return "down"
	default:
		return "unknown"
	}
}

// channelInfo describes a decoded channel identifier.
type channelInfo struct {
	Kind ChannelKind
	// Node is the processing node for node↔switch channels (else -1).
	Node int
	// Lower is the lower-level switch of the link: the leaf switch for
	// node↔switch channels, or the child switch for switch↔switch channels.
	Lower treeSwitch
	// Upper is the parent switch for switch↔switch channels.
	Upper treeSwitch
	// Port is the node's leaf-switch down-port for node channels, or the
	// child's up-port for switch↔switch channels.
	Port int
}

// channel decodes a dense channel identifier. It panics on out-of-range ids.
func (f *FatTree) channel(c int) channelInfo {
	switch {
	case c < 0 || c >= f.Channels():
		panic(fmt.Sprintf("topo: fat-tree channel id %d out of range [0,%d)", c, f.Channels()))
	case c < f.nodes:
		leaf, port := f.leafOf(c)
		return channelInfo{Kind: ChanNodeUp, Node: c, Lower: leaf, Port: port}
	case c < 2*f.nodes:
		node := c - f.nodes
		leaf, port := f.leafOf(node)
		return channelInfo{Kind: ChanNodeDown, Node: node, Lower: leaf, Port: port}
	}
	rem := c - 2*f.nodes
	kind := ChanUp
	if rem >= (f.levels-1)*f.nodes {
		kind = ChanDown
		rem -= (f.levels - 1) * f.nodes
	}
	within := rem % f.nodes
	lower := f.switchAt(rem/f.nodes+1, within/f.k)
	q := within % f.k
	upper, _ := f.parent(lower, q)
	return channelInfo{Kind: kind, Node: -1, Lower: lower, Upper: upper, Port: q}
}

// ProbJ returns the paper's Eq. 4: index j of the returned slice (1 ≤ j ≤ n)
// holds the probability that a message from a fixed source to a uniformly
// random other node has its NCA at level j (i.e. crosses 2j links). Index 0
// is unused and zero.
func (f *FatTree) ProbJ() []float64 {
	p := make([]float64, f.levels+1)
	denom := float64(f.nodes - 1)
	for j := 1; j < f.levels; j++ {
		p[j] = float64(f.kPow[j]-f.kPow[j-1]) / denom
	}
	p[f.levels] = float64(f.nodes-f.kPow[f.levels-1]) / denom
	return p
}

// AvgDistanceClosedForm returns d_avg by the closed form corresponding to
// Eq. 9 (re-derived by Abel summation; see DESIGN.md §3):
//
//	d_avg = 2·(2n·k^n − k^(n−1) − (k^(n−1)−k)/(k−1) − 1) / (N−1),  k > 1
//	d_avg = 2n,                                                    k = 1
func (f *FatTree) AvgDistanceClosedForm() float64 {
	n, k := f.levels, f.k
	if k == 1 {
		return 2 * float64(n)
	}
	num := 2*float64(n)*float64(f.kPow[n]) - float64(f.kPow[n-1]) -
		float64(f.kPow[n-1]-k)/float64(k-1) - 1
	return 2 * num / float64(f.nodes-1)
}

// CheckStructure verifies the wiring invariants of the tree by exhaustive
// enumeration: parent/child navigation must be mutually inverse and every
// port of every switch must be used exactly once. It is O(switches·m).
func (f *FatTree) CheckStructure() error {
	for l := 1; l <= f.levels; l++ {
		for idx := 0; idx < f.levelSize[l]; idx++ {
			sw := f.switchAt(l, idx)
			if f.switchIndex(sw) != idx {
				return fmt.Errorf("topo: fat-tree switch index roundtrip failed at level %d idx %d", l, idx)
			}
			// Upward wiring.
			if l < f.levels {
				for q := 0; q < f.k; q++ {
					parent, downPort := f.parent(sw, q)
					if parent.Level != l+1 {
						return fmt.Errorf("topo: parent of level-%d switch has level %d", l, parent.Level)
					}
					child, upPort := f.childSwitch(parent, downPort)
					if child != sw || upPort != q {
						return fmt.Errorf("topo: parent/child mismatch at %+v q=%d: child=%+v up=%d", sw, q, child, upPort)
					}
				}
			}
			// Downward wiring.
			if l == 1 {
				for p := 0; p < f.radix(1); p++ {
					leaf, port := f.leafOf(f.childNode(sw, p))
					if leaf != sw || port != p {
						return fmt.Errorf("topo: leaf wiring mismatch at %+v p=%d", sw, p)
					}
				}
			} else {
				for p := 0; p < f.radix(l); p++ {
					child, upPort := f.childSwitch(sw, p)
					parent, downPort := f.parent(child, upPort)
					if parent != sw || downPort != p {
						return fmt.Errorf("topo: down/up wiring mismatch at %+v p=%d", sw, p)
					}
				}
			}
		}
	}
	return nil
}

// BisectionWidth returns the number of links that must be removed to
// separate the canonical halves of the node set (top digit x_n < k versus
// ≥ k): N/2, i.e. the m-port n-tree has full bisection bandwidth — the
// property the paper invokes in §2 to rule out link contention.
func (f *FatTree) BisectionWidth() int { return f.nodes / 2 }

// VerifyFullBisection checks BisectionWidth by enumeration: it counts the
// links that cross from the canonical lower half into the straddling layer
// (the roots for n ≥ 2; the single shared switch for n = 1) and compares
// the count with N/2.
func (f *FatTree) VerifyFullBisection() error {
	cut := 0
	if f.levels == 1 {
		// One switch serves both halves: the cut consists of the lower
		// half's node links.
		cut = f.nodes / 2
	} else {
		// Count ascending links from lower-half level-(n−1) switches into
		// the roots. A level-(n−1) switch's suffix is exactly the digit
		// x_n, so the lower half is suffix < k.
		for idx := 0; idx < f.levelSize[f.levels-1]; idx++ {
			sw := f.switchAt(f.levels-1, idx)
			if sw.Suffix >= f.k {
				continue
			}
			for q := 0; q < f.k; q++ {
				parent, _ := f.parent(sw, q)
				if parent.Level != f.levels {
					return fmt.Errorf("topo: level-(n-1) switch %+v has non-root parent", sw)
				}
				cut++
			}
		}
	}
	if cut != f.BisectionWidth() {
		return fmt.Errorf("topo: enumerated bisection cut %d != N/2 = %d", cut, f.BisectionWidth())
	}
	return nil
}
