package topo

import (
	"fmt"

	"mcnet/internal/routing"
)

// The fat tree routes with the deterministic up*/down* discipline the paper
// adopts (§2, following Lin's scheme): a message ascends to a nearest common
// ancestor of source and destination and then descends. The descent is
// forced by the destination's digits; the ascent has a free choice of
// up-port at every level, and routing.Mode picks the discipline:
//
//   - Balanced: the up-port at level l is the destination's l-th digit (the
//     classic d-mod-k discipline). All traffic towards a given destination
//     converges onto one dedicated subtree, which makes the descending phase
//     contention-free among distinct destinations and spreads ascending
//     traffic uniformly for uniform destinations — the "balanced traffic
//     distribution" the paper invokes to rule out switch contention.
//
//   - RandomUp (ablation): the up-port is drawn from successive base-k
//     digits of the caller-supplied selector, modeling an oblivious random
//     ascent.
//
// The ECN1 legs around a concentrator (AppendUpToRoot, RootIndex,
// AppendDownFromRoot) pick their root from the selector digits in both
// modes, so they never depend on the mode.

// upChoice returns the ascent port for level l. In Balanced mode it is the
// destination digit; in RandomUp mode successive base-k digits of *sel are
// consumed.
func (f *FatTree) upChoice(l, dst int, sel *uint64) int {
	if f.mode == routing.Balanced {
		return f.nodeDigit(dst, l)
	}
	k := uint64(f.k)
	q := int(*sel % k)
	*sel /= k
	return q
}

// appendRoute computes the up*/down* route from src to dst hop by hop,
// offset by base. It routes RandomUp messages, whose ascent depends on sel,
// and is the reference the Balanced route table is tested against.
func (f *FatTree) appendRoute(path []int32, base int32, src, dst int, sel uint64) []int32 {
	j := f.NCALevel(src, dst)
	if j == 0 {
		panic(fmt.Sprintf("topo: fat-tree route with src == dst == %d", src))
	}
	path = append(path, base+int32(f.nodeUpChannel(src)))
	sw, _ := f.leafOf(src)
	for l := 1; l < j; l++ {
		q := f.upChoice(l, dst, &sel)
		path = append(path, base+int32(f.upChannel(sw, q)))
		sw, _ = f.parent(sw, q)
	}
	// sw is now a common ancestor at level j; descend along dst's digits.
	return f.appendDescent(path, base, sw, dst)
}

// appendDescent appends the descent from the level-j switch sw to dst:
// j−1 descending links along dst's digits plus the ejection link.
func (f *FatTree) appendDescent(path []int32, base int32, sw treeSwitch, dst int) []int32 {
	for l := sw.Level; l >= 2; l-- {
		child, upPort := f.childSwitch(sw, f.nodeDigit(dst, l))
		path = append(path, base+int32(f.downChannel(child, upPort)))
		sw = child
	}
	return append(path, base+int32(f.nodeDownChannel(dst)))
}

// appendAscent appends the ascent from src to the root with within-level
// index y: the up-port at level l is y's l-th base-k digit, exactly the
// digits RootIndex consumes from a selector.
func (f *FatTree) appendAscent(path []int32, src, y int) []int32 {
	path = append(path, int32(f.nodeUpChannel(src)))
	sw, _ := f.leafOf(src)
	for l := 1; l < f.levels; l++ {
		q := y % f.k
		y /= f.k
		path = append(path, int32(f.upChannel(sw, q)))
		sw, _ = f.parent(sw, q)
	}
	return path
}

// tables builds the route tables on the first call; every later call costs
// one atomic load.
func (f *FatTree) tables() { f.built.Do(f.buildTables) }

// buildTables precomputes, in both modes, the ascent from every node to
// every root and the descent from every root to every node, and then the
// Balanced intra route of every ordered (src, dst) pair.
//
// A Balanced route with its NCA at level j ascends along dst's digits, the
// same up-ports as the ascent to root y = dst mod k^(n−1), and that ascent
// reaches the same level-j switch as the descent from root y to dst. So the
// route is the first j channels of the ascent src → y followed by the last
// j channels of the descent y → dst: both copied from the arenas, with no
// per-hop label arithmetic.
func (f *FatTree) buildTables() {
	n, roots, levels := f.nodes, f.Roots(), f.levels
	// The arenas fill through locals, stored once at the end, so appends
	// pay no GC write barrier on the FatTree's fields.
	up := make([]int32, 0, n*roots*levels)
	for src := 0; src < n; src++ {
		for y := 0; y < roots; y++ {
			up = f.appendAscent(up, src, y)
		}
	}
	down := make([]int32, 0, roots*n*levels)
	for y := 0; y < roots; y++ {
		root := treeSwitch{Level: levels, Y: y}
		for dst := 0; dst < n; dst++ {
			down = f.appendDescent(down, 0, root, dst)
		}
	}
	f.upArena, f.downArena = up, down
	if f.mode != routing.Balanced {
		return
	}

	// Every source has k^j − k^(j−1) destinations with their NCA at level
	// j < n and N − k^(n−1) at level n (Eq. 4), each route 2j channels long,
	// which sizes the arena exactly.
	perSource := 2 * levels * (n - f.kPow[levels-1])
	for j := 1; j < levels; j++ {
		perSource += 2 * j * (f.kPow[j] - f.kPow[j-1])
	}
	off := make([]int32, n*n+1)
	routes := make([]int32, 0, n*perSource)
	// nca[dst] is the NCA level of (src, dst) for the current source: n
	// outside src's level-(n−1) block of k^(n−1) nodes, then each smaller
	// block of k^l nodes around src overwritten with l.
	nca := make([]int, n)
	for src := 0; src < n; src++ {
		for dst := range nca {
			nca[dst] = levels
		}
		for l := levels - 1; l >= 1; l-- {
			lo := src / f.kPow[l] * f.kPow[l]
			for dst := lo; dst < lo+f.kPow[l]; dst++ {
				nca[dst] = l
			}
		}
		ascents := up[src*roots*levels : (src+1)*roots*levels]
		y := 0 // dst mod k^(n−1)
		for dst := 0; dst < n; dst++ {
			if dst != src {
				j := nca[dst]
				routes = append(routes, ascents[y*levels:][:j]...)
				routes = append(routes, down[(y*n+dst)*levels+levels-j:][:j]...)
			}
			off[src*n+dst+1] = int32(len(routes))
			if y++; y == roots {
				y = 0
			}
		}
	}
	f.routeOff, f.routeArena = off, routes
}

// appendOffset appends src to dst with every element offset by base.
func appendOffset(dst []int32, src []int32, base int32) []int32 {
	if base == 0 {
		return append(dst, src...)
	}
	for _, c := range src {
		dst = append(dst, base+c)
	}
	return dst
}

// AppendRoute appends the up*/down* route from src to dst, offset by base.
// In Balanced mode this is a copy from the precomputed arena; in RandomUp
// mode the ascent depends on sel, so the route is computed hop by hop.
func (f *FatTree) AppendRoute(path []int32, base int32, src, dst int, sel uint64) []int32 {
	if f.mode != routing.Balanced {
		return f.appendRoute(path, base, src, dst, sel)
	}
	f.tables()
	i := src*f.nodes + dst
	return appendOffset(path, f.routeArena[f.routeOff[i]:f.routeOff[i+1]], base)
}

// RootIndex returns the within-level index of the root switch selected by
// successive base-k digits of sel: digit l−1 picks the up-port at level l,
// so the index is sel's n−1 low base-k digits, sel mod k^(n−1).
func (f *FatTree) RootIndex(sel uint64) int {
	roots := uint64(f.Roots())
	if f.rootsPow2 {
		return int(sel & (roots - 1))
	}
	return int(sel % roots)
}

// AppendUpToRoot appends the ascent from src (n channels: the injection
// link plus n−1 ascending links) to the root selected by sel's base-k
// digits, offset by base, and returns the root's within-level index. This
// is the outbound leg towards the cluster's concentrator.
func (f *FatTree) AppendUpToRoot(path []int32, base int32, src int, sel uint64) ([]int32, int) {
	f.tables()
	y := f.RootIndex(sel)
	i := (src*f.Roots() + y) * f.levels
	return appendOffset(path, f.upArena[i:i+f.levels], base), y
}

// AppendDownFromRoot appends the descent from the root with within-level
// index rootY to dst (n channels: n−1 descending links plus the ejection
// link), offset by base. This is the inbound leg from the cluster's
// concentrator.
func (f *FatTree) AppendDownFromRoot(path []int32, base int32, rootY, dst int) []int32 {
	f.tables()
	i := (rootY*f.nodes + dst) * f.levels
	return appendOffset(path, f.downArena[i:i+f.levels], base)
}

// route, upToRoot and downFromRoot are the allocating, label-walking
// references the appenders and tables are tested against.

// route returns the channel sequence of the up*/down* route from src to dst
// (2j channels, j = NCA level). It panics if src == dst, which is never a
// valid message in the modeled system.
func (f *FatTree) route(src, dst int, sel uint64) []int {
	j := f.NCALevel(src, dst)
	if j == 0 {
		panic(fmt.Sprintf("topo: fat-tree route with src == dst == %d", src))
	}
	path := make([]int, 0, 2*j)
	path = append(path, f.nodeUpChannel(src))
	sw, _ := f.leafOf(src)
	for l := 1; l < j; l++ {
		q := f.upChoice(l, dst, &sel)
		path = append(path, f.upChannel(sw, q))
		sw, _ = f.parent(sw, q)
	}
	for l := j; l >= 2; l-- {
		child, upPort := f.childSwitch(sw, f.nodeDigit(dst, l))
		path = append(path, f.downChannel(child, upPort))
		sw = child
	}
	return append(path, f.nodeDownChannel(dst))
}

// upToRoot returns the ascent from src all the way to a root switch,
// together with the chosen root; the root choice consumes base-k digits of
// sel in both modes.
func (f *FatTree) upToRoot(src int, sel uint64) ([]int, treeSwitch) {
	path := make([]int, 0, f.levels)
	path = append(path, f.nodeUpChannel(src))
	sw, _ := f.leafOf(src)
	k := uint64(f.k)
	for l := 1; l < f.levels; l++ {
		q := int(sel % k)
		sel /= k
		path = append(path, f.upChannel(sw, q))
		sw, _ = f.parent(sw, q)
	}
	return path, sw
}

// downFromRoot returns the descent from a root switch to dst.
func (f *FatTree) downFromRoot(root treeSwitch, dst int) []int {
	if root.Level != f.levels {
		panic(fmt.Sprintf("topo: descent from non-root level %d", root.Level))
	}
	path := make([]int, 0, f.levels)
	sw := root
	for l := f.levels; l >= 2; l-- {
		child, upPort := f.childSwitch(sw, f.nodeDigit(dst, l))
		path = append(path, f.downChannel(child, upPort))
		sw = child
	}
	return append(path, f.nodeDownChannel(dst))
}

// LoadMatrix counts, for every directed channel, how many of the N(N−1)
// ordered all-pairs routes traverse it under the tree's routing mode. In
// RandomUp mode the ascent selectors are derived deterministically from the
// pair, so the matrix is reproducible.
func (f *FatTree) LoadMatrix() []int {
	loads := make([]int, f.Channels())
	for src := 0; src < f.nodes; src++ {
		for dst := 0; dst < f.nodes; dst++ {
			if src == dst {
				continue
			}
			sel := uint64(src)*0x9e3779b97f4a7c15 ^ uint64(dst)
			for _, c := range f.route(src, dst, sel) {
				loads[c]++
			}
		}
	}
	return loads
}

// LoadSummary aggregates a load matrix per channel kind.
type LoadSummary struct {
	Kind     ChannelKind
	Channels int
	Min, Max int
	Mean     float64
}

// String renders one row.
func (s LoadSummary) String() string {
	return fmt.Sprintf("%-10v channels=%-6d load min=%-8d mean=%-10.1f max=%-8d imbalance=%.3f",
		s.Kind, s.Channels, s.Min, s.Mean, s.Max, s.Imbalance())
}

// Imbalance returns max/mean, the figure of merit of the balanced-routing
// claim (1.0 = perfectly uniform).
func (s LoadSummary) Imbalance() float64 {
	if s.Mean == 0 {
		return 0
	}
	return float64(s.Max) / s.Mean
}

// SummarizeLoads groups a load matrix by channel kind.
func (f *FatTree) SummarizeLoads(loads []int) []LoadSummary {
	out := make([]LoadSummary, ChanDown+1)
	for k := range out {
		out[k] = LoadSummary{Kind: ChannelKind(k), Min: 1 << 62}
	}
	for c, load := range loads {
		s := &out[f.channel(c).Kind]
		s.Channels++
		s.Mean += float64(load)
		s.Min = min(s.Min, load)
		s.Max = max(s.Max, load)
	}
	for k := range out {
		if s := &out[k]; s.Channels > 0 {
			s.Mean /= float64(s.Channels)
		} else {
			s.Min = 0
		}
	}
	return out
}
