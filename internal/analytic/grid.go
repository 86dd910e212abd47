package analytic

import "math"

// Grid batch-evaluates one Model over many operating points, amortizing the
// work the point-wise Evaluate repeats: the per-point scratch is reused
// instead of reallocated, and within each point the per-cluster intra results
// and per-destination pair results are memoized by the full set of
// floating-point inputs feeding them. Organizations built from repeated
// cluster shapes (every Table 1 organization) collapse from O(C²) stage
// recursions per point to one per *distinct* cluster pair, while staying
// bit-identical to Model.Evaluate: a memo hit replays a computation whose
// inputs were equal bit-for-bit, and the per-source accumulation still runs
// in ascending destination order, so every floating-point operation and its
// order are unchanged. A cluster that repeats its predecessor's classes
// copies the predecessor's result outright (repeats), and the in-rates skip
// their C-term sum along the same runs: a point walks the C−1 destinations
// once per run of equal clusters instead of once per cluster.
//
// The memo is keyed by interned classes: once per point, every cluster gets
// an intra class, a pair-source class and a pair-destination class ID, equal
// for two clusters exactly when the raw bits of every input their side of
// the computation reads are equal. The memos are dense tables indexed by
// those IDs, so a point costs C interning steps instead of C² key hashes.
//
// A Grid is not safe for concurrent use; callers that share one across
// goroutines (e.g. a server) must serialize access. Create with NewGrid.
type Grid struct {
	m  *Model
	sc scratch

	// topoID numbers each cluster's distinct ICN1 topology spec.
	topoID []int32

	// Per-point class IDs of each cluster and the class keys they index.
	intraID, srcID, dstID []int32
	intraCls              []intraClass
	srcCls                []srcClass
	dstCls                []dstClass
	// Per-point memos: intraMemo by intra class, pairMemo by (source class,
	// destination class).
	intraMemo []memoEntry[intraResult]
	pairMemo  []memoEntry[pairResult]

	// probeRes holds a saturation probe's per-cluster results, which no
	// caller reads: the search needs only whether the probe saturates.
	probeRes []ClusterResult
}

// intraClass is every input of Model.intraCluster that can differ between
// clusters: the tree shape (levels; ports are model-global and determine the
// route distribution together with levels and topology), the ICN1 topology,
// the cluster size (which determines P_o), the per-node rate and the
// cluster's ICN1 link class.
type intraClass struct {
	levels, nodes, topo int32
	pOut, lam           uint64
	tcnI1, tcsI1        uint64
}

// srcClass and dstClass split the inputs of Model.interPair that can differ
// between (source, destination) pairs into the source's and the
// destination's: shapes and sizes, the source rate and ECN1 class, the
// destination ECN1 class and the λ-dependent aggregate rates. The ICN2
// route-length distribution is pair-independent, the ECN1 legs are always
// trees and the global interconnect is model-global, so no topology
// identity is needed here.
type srcClass struct {
	levels, nodes int32
	pOut, lam     uint64
	tcsE1, out    uint64
}

type dstClass struct {
	levels, nodes int32
	tcnE1, tcsE1  uint64
	out, in       uint64
}

// memoEntry is one memo slot; set marks it computed at the current point.
type memoEntry[T any] struct {
	val T
	set bool
}

// intern returns the index of k in classes, appending it if new. A linear
// scan suits the handful of classes real organizations have, and costs at
// most the C² pair evaluations it saves when every cluster is distinct.
func intern[K comparable](classes []K, k K) ([]K, int32) {
	for id, x := range classes {
		if x == k {
			return classes, int32(id)
		}
	}
	return append(classes, k), int32(len(classes))
}

// resetMemo returns memo resized to n cleared entries.
func resetMemo[T any](memo []memoEntry[T], n int) []memoEntry[T] {
	if cap(memo) < n {
		return make([]memoEntry[T], n)
	}
	memo = memo[:n]
	clear(memo)
	return memo
}

// NewGrid prepares a batched evaluator over m. The model must not be
// mutated while the grid is in use.
func NewGrid(m *Model) *Grid {
	c := m.Sys.C()
	ids := make([]int32, 4*c)
	g := &Grid{
		m:        m,
		sc:       newScratch(m),
		topoID:   ids[:c:c],
		intraID:  ids[c : 2*c : 2*c],
		srcID:    ids[2*c : 3*c : 3*c],
		dstID:    ids[3*c:],
		intraCls: make([]intraClass, 0, c),
		srcCls:   make([]srcClass, 0, c),
		dstCls:   make([]dstClass, 0, c),
		probeRes: make([]ClusterResult, c),
	}
	var topos []string
	for i := range g.topoID {
		topos, g.topoID[i] = intern(topos, m.Sys.Clusters[i].Topo.String())
	}
	return g
}

// beginPoint interns every cluster's classes from the point's rates (already
// in the scratch) and resets the per-point memos.
func (g *Grid) beginPoint() {
	m := g.m
	g.intraCls, g.srcCls, g.dstCls = g.intraCls[:0], g.srcCls[:0], g.dstCls[:0]
	for i := range m.Sys.Clusters {
		cl := &m.Sys.Clusters[i]
		lv, nn := int32(cl.Levels), int32(cl.Nodes)
		pOut, lam, out := math.Float64bits(m.pOut[i]), math.Float64bits(g.sc.lam[i]), math.Float64bits(g.sc.outRate[i])
		g.intraCls, g.intraID[i] = intern(g.intraCls, intraClass{
			levels: lv, nodes: nn, topo: g.topoID[i], pOut: pOut, lam: lam,
			tcnI1: math.Float64bits(m.tcnI1[i]), tcsI1: math.Float64bits(m.tcsI1[i]),
		})
		g.srcCls, g.srcID[i] = intern(g.srcCls, srcClass{
			levels: lv, nodes: nn, pOut: pOut, lam: lam,
			tcsE1: math.Float64bits(m.tcsE1[i]), out: out,
		})
		g.dstCls, g.dstID[i] = intern(g.dstCls, dstClass{
			levels: lv, nodes: nn,
			tcnE1: math.Float64bits(m.tcnE1[i]), tcsE1: math.Float64bits(m.tcsE1[i]),
			out: out, in: math.Float64bits(g.sc.inRate[i]),
		})
	}
	g.intraMemo = resetMemo(g.intraMemo, len(g.intraCls))
	g.pairMemo = resetMemo(g.pairMemo, len(g.srcCls)*len(g.dstCls))
}

// repeats reports whether source cluster i's ClusterResult is its
// predecessor's: both share their intra, source and destination classes.
// The two clusters then see the same intra result and, destination by
// destination, the same pair results, except that i−1 skips itself and
// reads i where i skips itself and reads i−1. Those two pairs are equal, so
// both sums add the same values in the same order, and a saturated pair
// sits at the same position. The Bottleneck is unaffected: i−1, being
// earlier, names it.
func (g *Grid) repeats(i int) bool {
	return i > 0 && g.intraID[i] == g.intraID[i-1] && g.srcID[i] == g.srcID[i-1] && g.dstID[i] == g.dstID[i-1]
}

// intraCluster is the memoizing wrapper around Model.intraCluster.
func (g *Grid) intraCluster(i int) intraResult {
	e := &g.intraMemo[g.intraID[i]]
	if !e.set {
		e.val, e.set = g.m.intraCluster(i, g.sc.lam[i], &g.sc), true
	}
	return e.val
}

// interPair is the memoizing wrapper around Model.interPair. It returns the
// memo slot, valid until the next point.
func (g *Grid) interPair(i, v int) *pairResult {
	m := g.m
	e := &g.pairMemo[int(g.srcID[i])*len(g.dstCls)+int(g.dstID[v])]
	if !e.set {
		e.val, e.set = m.interPair(i, v, g.sc.lam[i], g.sc.outRate, g.sc.inRate, &g.sc), true
	}
	return &e.val
}

// Evaluate computes the model at λ_g exactly like Model.Evaluate — same
// Result, bit for bit, including saturated points and their Bottleneck
// strings — while reusing the grid's scratch and memoized shared terms.
func (g *Grid) Evaluate(lambdaG float64) (Result, error) {
	return g.m.evaluate(lambdaG, g, false)
}

// MeanLatency is the batched counterpart of Model.MeanLatency.
func (g *Grid) MeanLatency(lambdaG float64) (float64, error) {
	res, err := g.Evaluate(lambdaG)
	return res.MeanLatency, err
}
