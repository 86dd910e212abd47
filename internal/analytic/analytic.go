// Package analytic implements the paper's contribution: the analytical model
// of mean message latency in heterogeneous multi-cluster systems (paper §3,
// Eqs. 3–36).
//
// # Structure of the model
//
// For a message source in cluster i the model combines:
//
//   - the distribution P(j, n) of the number of link-pairs crossed in an
//     m-port n-tree under uniform traffic (Eq. 4) and the resulting average
//     distance d_avg (Eqs. 8–9) — supplied by the fat tree (topo.FatTree);
//
//   - per-channel message rates η for ICN1, ECN1 and ICN2 (Eqs. 10–12)
//     obtained by spreading each network's aggregate load over its channels;
//
//   - a backward recursion over the stages of a journey (Eqs. 16–18): the
//     mean service time of a channel at stage k equals the message transfer
//     time plus the mean waiting times at all later stages, where the wait
//     at a stage is ½·S·P_B with blocking probability P_B = η·S from the
//     two-state birth–death chain (Eq. 17, linearized as in the paper);
//
//   - an M/G/1 source queue (Eqs. 19–23) with the Draper–Ghosh variance
//     approximation σ² = (S − M·t_cn)² (Eq. 22);
//
//   - the tail-flit pipeline time R (Eqs. 24, 32);
//
//   - M/D/1 concentrator/dispatcher waits with deterministic service M·t_cs
//     (Eqs. 33–34);
//
//   - the probability mix ℓ_i = (1−P_o)·T_ICN1 + P_o·(T_ECN1&ICN2 + W_d)
//     (Eq. 35) and the size-weighted system mean (Eq. 36).
//
// # Interpretation options
//
// Three spots of the paper are ambiguous in the available text: the ICN2
// rate normalization of Eqs. 7/12, the concentrator arrival rate of Eq. 33
// and the source-queue arrival rate of Eqs. 23/30 (see DESIGN.md §3).
// Options.PaperLiteral switches all three at once between the channel-
// count-consistent readings (the default, calibrated against the
// simulator) and the paper-literal ones (kept for the ablation
// experiment).
//
// The model also supports per-cluster injection-rate factors (processor-
// power heterogeneity), a strict extension of the paper's assumption 3.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"mcnet/internal/queueing"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// channelFactor is the constant F in the denominators of the channel rate
// equations (Eqs. 10–12). The paper uses 4; the directed-channel count of an
// m-port n-tree (2nN channels for traffic of d_avg·λ link crossings) would
// correspond to 2.
const channelFactor = 4

// Options selects between the two readings of the paper's ambiguous
// equations.
type Options struct {
	// PaperLiteral, when true, takes the literal reading of all three
	// ambiguous spots (DESIGN.md §3); the default, false, takes the
	// calibrated one:
	//
	//   - Eqs. 7/12: η_I2's numerator is the pair-extrapolated total ICN2
	//     load, not that load over the concentrator count C, a per-channel
	//     rate on the same footing as Eqs. 10–11.
	//   - Eqs. 23/30: the source-queue M/G/1 is fed the aggregate rates λ_I1
	//     and λ_E1 of Eqs. 5–6, not the node's own (1−P_o)·λ_i and P_o·λ_i;
	//     the aggregate reading saturates the model a factor ≈2 before the
	//     paper's plotted traffic ranges (mcrepro's "ablation-icn2").
	//   - Eq. 33: the concentrator and the dispatcher buffer both take the
	//     pair-extrapolated rate λ_I2(i,v)/C, not cluster i's outgoing flow
	//     N_i·P_o(i)·λ_i and cluster v's incoming flow, which reproduce the
	//     simulator's dominant bottleneck.
	PaperLiteral bool
}

// DefaultOptions returns the calibrated defaults used by the experiments.
func DefaultOptions() Options {
	return Options{}
}

// PaperLiteralOptions returns the closest literal reading of the paper's
// equations, used by the interpretation ablation.
func PaperLiteralOptions() Options {
	return Options{PaperLiteral: true}
}

// Model evaluates the analytical latency of one system. Create with New.
type Model struct {
	Sys *system.System
	Par units.Params
	Opt Options

	probJ [][]float64 // per cluster: ECN1 tree P(j, n_i), index j
	dAvg  []float64   // per cluster: ECN1 tree d_avg
	pOut  []float64   // per cluster: Eq. 13
	// ICN1 structural quantities come from the cluster's topology plugin:
	// distI1[i][d] is the probability an intra route crosses d channels,
	// dAvgI1 its mean, and etaChI1 the η normalization channel count. For
	// the default fat tree distI1[i][2j] == probJ[i][j] (odd entries zero)
	// and etaChI1 == n_i·N_i, so the evaluation reproduces the pre-plugin
	// j-indexed form bit for bit.
	distI1  [][]float64
	dAvgI1  []float64
	etaChI1 []float64
	// ICN2 structural quantities come from the global interconnect plugin:
	// dist2[d] is the route-length distribution over ordered cluster pairs
	// (for a fat-tree ICN2, the NCA distribution re-indexed at d = 2h),
	// dICN2 its mean and c2 the η normalization per terminal (= n_c for
	// trees).
	dist2 []float64
	dICN2 float64
	c2    float64

	// Tier-resolved connection service times (Eqs. 14–15 evaluated per
	// network): per source cluster for ICN1/ECN1, global for the ICN2 switch
	// links and the concentrator/dispatcher links. With no link-class
	// overrides every entry equals the base vector's value and the model is
	// bit-identical to the single-technology form.
	tcnI1, tcsI1, mtcnI1, mtcsI1 []float64
	tcnE1, tcsE1, mtcnE1, mtcsE1 []float64
	tcsI2, mtcsI2                float64
	tcsConc, mtcsConc            float64
	// hetero records whether any tier deviates from the base vector; the
	// homogeneous path keeps the paper's original expressions (and their
	// exact floating-point evaluation order).
	hetero bool
}

// New precomputes the topology-dependent quantities of the model.
func New(sys *system.System, par units.Params, opt Options) (*Model, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Sys: sys, Par: par, Opt: opt}
	m.probJ = make([][]float64, sys.C())
	m.dAvg = make([]float64, sys.C())
	m.pOut = make([]float64, sys.C())
	m.distI1 = make([][]float64, sys.C())
	m.dAvgI1 = make([]float64, sys.C())
	m.etaChI1 = make([]float64, sys.C())
	m.tcnI1 = make([]float64, sys.C())
	m.tcsI1 = make([]float64, sys.C())
	m.mtcnI1 = make([]float64, sys.C())
	m.mtcsI1 = make([]float64, sys.C())
	m.tcnE1 = make([]float64, sys.C())
	m.tcsE1 = make([]float64, sys.C())
	m.mtcnE1 = make([]float64, sys.C())
	m.mtcsE1 = make([]float64, sys.C())
	flits := float64(par.MessageFlits)
	for i := range sys.Clusters {
		m.probJ[i] = sys.Clusters[i].ECN1Net.ProbJ()
		m.dAvg[i] = sys.Clusters[i].ECN1Net.AvgDistance()
		m.pOut[i] = sys.POut(i)
		net := sys.Clusters[i].Net
		m.distI1[i] = net.RouteDist()
		m.dAvgI1[i] = net.AvgDistance()
		m.etaChI1[i] = net.EtaChannels()
		icn1 := par.ICN1Class()
		if c := sys.Clusters[i].ICN1; c != nil {
			icn1 = *c
		}
		ecn1 := par.ECN1Class()
		if c := sys.Clusters[i].ECN1; c != nil {
			ecn1 = *c
		}
		m.tcnI1[i] = icn1.Tcn(par.FlitBytes)
		m.tcsI1[i] = icn1.Tcs(par.FlitBytes)
		m.mtcnI1[i] = flits * m.tcnI1[i]
		m.mtcsI1[i] = flits * m.tcsI1[i]
		m.tcnE1[i] = ecn1.Tcn(par.FlitBytes)
		m.tcsE1[i] = ecn1.Tcs(par.FlitBytes)
		m.mtcnE1[i] = flits * m.tcnE1[i]
		m.mtcsE1[i] = flits * m.tcsE1[i]
	}
	m.tcsI2 = par.ICN2Class().Tcs(par.FlitBytes)
	m.mtcsI2 = flits * m.tcsI2
	m.tcsConc = par.ConcClass().Tcs(par.FlitBytes)
	m.mtcsConc = flits * m.tcsConc
	m.hetero = !par.Tiers.Homogeneous() || sys.LinkHeterogeneous()
	m.dist2 = sys.ICN2RouteDist()
	for d, p := range m.dist2 {
		m.dICN2 += float64(d) * p
	}
	m.c2 = sys.ICN2Net.EtaChannels() / float64(sys.ICN2Net.Nodes())
	return m, nil
}

// ClusterResult breaks the latency of one source cluster into the paper's
// terms.
type ClusterResult struct {
	POut float64
	// Intra-cluster journey (ICN1): source wait, network latency, tail time.
	WIntra, SIntra, RIntra float64
	TIntra                 float64
	// Inter-cluster journey (ECN1 + ICN2), averaged over destinations.
	WInter, SInter, RInter float64
	TInter                 float64
	// WConc is the mean concentrator+dispatcher wait W_d (Eq. 34).
	WConc float64
	// Latency is ℓ_i of Eq. 35.
	Latency float64
	// Saturated marks a cluster whose mix includes an unstable component.
	Saturated bool
}

// Result is the model's output for one offered traffic λ_g.
type Result struct {
	LambdaG     float64
	MeanLatency float64 // Eq. 36 (+Inf when saturated)
	PerCluster  []ClusterResult
	Saturated   bool
	// Bottleneck names the first component found unstable, e.g.
	// "source-queue(E,i=3,v=0)" — empty when not saturated.
	Bottleneck string
}

// ErrSaturated reports an operating point past the model's stability region.
var ErrSaturated = errors.New("analytic: operating point is saturated")

// stage is one hop of a journey in the backward stage recursion: the
// message transfer time M·t_cs of its channel class and the channel's rate η.
type stage struct{ mtcs, eta float64 }

// suffixService runs the backward stage recursion (Eqs. 16–18) once for a
// family of journeys that share their last stages and differ only in how
// many head stages precede them. The walk starts at the node end: the final
// (switch→node) stage has transfer time mtcn and channel rate etaN, tail
// lists the stages before it from last to first, and head is the stage
// repeated in front of the tail. suffixService writes s0[x], the S₀ of the
// journey of 1+len(tail)+x stages, for x = 0, 1, ... and returns how many it
// wrote: once a stage's utilization reaches 1, every journey that crosses it
// before its first stage is saturated and has no S₀.
//
// Every journey of the family sees the same stage values in the same order,
// so each S₀ is the same sequence of floating-point operations on the same
// operands as a recursion over that journey alone; one walk of
// len(tail)+len(s0) stages replaces a walk per journey.
func suffixService(mtcn, etaN float64, tail []stage, head stage, s0 []float64) int {
	if len(s0) == 0 {
		return 0
	}
	last := len(tail) + len(s0) - 1
	s, e := mtcn, etaN
	sumW := 0.0
	for r := 0; ; r++ {
		if r > 0 {
			st := head
			if r <= len(tail) {
				st = tail[r-1]
			}
			s, e = st.mtcs+sumW, st.eta
		}
		if x := r - len(tail); x >= 0 {
			s0[x] = s
		}
		if r == last {
			return len(s0)
		}
		if e*s >= 1 {
			return max(r-len(tail)+1, 0)
		}
		sumW += 0.5 * s * ChannelBlockingProbability(e, s)
	}
}

// ChannelBlockingProbability returns P_B of Eq. 17: the steady-state
// probability that a channel with Poisson message rate eta and mean service
// time service is busy when a new message arrives. The paper (following its
// reference [25]) takes it from a birth–death chain whose birth rate is η
// and whose death rate is 1/S. For the single-flit-buffer channel of the
// paper the chain has two states (idle, busy), giving P_B = ηS/(1+ηS); the
// paper linearizes this to the channel utilization ηS, which we adopt,
// clamped to [0, 1].
func ChannelBlockingProbability(eta, service float64) float64 {
	p := eta * service
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// pairStages are the stage classes of the merged inter-cluster journey i→v:
// the ascent through cluster i's ECN1 (up), the concentrator↔ICN2 entry and
// exit links (conc), the ICN2 switch links between them (icn2), and the
// descent through cluster v's ECN1 (down) ending on its switch→node link of
// transfer time mtcn.
type pairStages struct {
	up, conc, icn2, down stage
	mtcn                 float64
}

// suffix appends to tail the stages of the journeys with descent height l
// and ICN2 route length d₂, from the node end back to the concentrator entry
// link (Eq. 29): l−1 descent switch links, then the ICN2 exit link, d₂−2
// ICN2 switch links and the entry link. The ascent's j−1 switch links are
// the head stages in front of it.
func (p *pairStages) suffix(tail []stage, l, d2 int) []stage {
	for r := 1; r < l; r++ {
		tail = append(tail, p.down)
	}
	for q := 0; q < d2; q++ {
		if q == 0 || q == d2-1 {
			tail = append(tail, p.conc)
		} else {
			tail = append(tail, p.icn2)
		}
	}
	return tail
}

// scratch holds the buffers one model evaluation's stage recursions write
// into, and the per-point rate vectors. A Grid keeps one across points;
// Model.Evaluate allocates its own.
type scratch struct {
	lam, outRate, inRate []float64
	// s0 holds the S₀ values of one cluster's intra journeys, or of one
	// pair's inter journeys in blocks of one (l, d₂) suffix each; n counts
	// each block's unsaturated entries.
	s0   []float64
	n    []int
	tail []stage
}

// newScratch sizes a scratch for every cluster and pair of m. Pair suffix
// blocks are laid out by (l, d₂).
func newScratch(m *Model) scratch {
	c := m.Sys.C()
	rates := make([]float64, 3*c)
	maxJ, maxI1 := 0, 0
	for i := range m.probJ {
		maxJ = max(maxJ, len(m.probJ[i]))
		maxI1 = max(maxI1, len(m.distI1[i]))
	}
	blocks := maxJ * len(m.dist2)
	return scratch{
		lam:     rates[:c:c],
		outRate: rates[c : 2*c : 2*c],
		inRate:  rates[2*c:],
		s0:      make([]float64, max(blocks*maxJ, maxI1)),
		n:       make([]int, blocks),
		tail:    make([]stage, 0, maxJ+len(m.dist2)),
	}
}

// satKind names the component class that saturated inside a cluster or pair
// computation, so memoized results can be reused across clusters with
// identical inputs while the Bottleneck string still names the *actual*
// (i,v) indices of the instance being evaluated.
type satKind int8

const (
	satNone satKind = iota
	satChainI1
	satSourceI1
	satChainE
	satSourceE
	satConc
)

// satWhere renders the Bottleneck string of a saturation kind for the given
// cluster/pair indices (v is ignored for intra kinds).
func satWhere(k satKind, i, v int) string {
	switch k {
	case satChainI1:
		return fmt.Sprintf("channel-chain(ICN1,i=%d)", i)
	case satSourceI1:
		return fmt.Sprintf("source-queue(ICN1,i=%d)", i)
	case satChainE:
		return fmt.Sprintf("channel-chain(E,i=%d,v=%d)", i, v)
	case satSourceE:
		return fmt.Sprintf("source-queue(E,i=%d,v=%d)", i, v)
	case satConc:
		return fmt.Sprintf("concentrator(i=%d,v=%d)", i, v)
	}
	return ""
}

// fillRates computes the per-cluster aggregate rates at λ_g into the supplied
// slices (each of length C): lam is the per-node rate λ_i, outRate is
// N_i·P_o(i)·λ_i, and inRate is the incoming inter-cluster rate per cluster
// (for the calibrated Eq. 33 dispatcher arrivals).
//
// With runs set, a cluster of its predecessor's size and outgoing rate takes
// the predecessor's in-rate. That is exact: the two sums differ only in
// which of two equal terms they skip, so they add the same values in the
// same order.
func (m *Model) fillRates(lambdaG float64, lam, outRate, inRate []float64, runs bool) {
	sys := m.Sys
	n := float64(sys.TotalNodes())
	c := sys.C()
	for i := range sys.Clusters {
		lam[i] = lambdaG * sys.Clusters[i].RateFactor
		outRate[i] = float64(sys.Clusters[i].Nodes) * m.pOut[i] * lam[i]
	}
	for v := 0; v < c; v++ {
		if runs && v > 0 && sys.Clusters[v].Nodes == sys.Clusters[v-1].Nodes &&
			math.Float64bits(outRate[v]) == math.Float64bits(outRate[v-1]) {
			inRate[v] = inRate[v-1]
			continue
		}
		in := 0.0
		nv := float64(sys.Clusters[v].Nodes)
		for u := 0; u < c; u++ {
			if u == v {
				continue
			}
			nu := float64(sys.Clusters[u].Nodes)
			in += outRate[u] * nv / (n - nu)
		}
		inRate[v] = in
	}
}

// intraResult is the ICN1 part of one cluster's latency (Eqs. 22–25), or the
// saturation kind when unstable.
type intraResult struct {
	w, s, r, t float64
	sat        satKind
}

// intraCluster evaluates the intra-cluster (ICN1) journey of source cluster i
// at per-node rate lamI: the whole journey stays inside cluster i's ICN1, so
// every stage uses that network's link class. The journey-length mix comes
// from the topology's route distribution — a route of d channels has d−1
// blocking stages and a tail pipeline of d−2 switch links plus the final
// node link, which for the fat tree (d = 2j) is exactly the paper's Eqs.
// 24–25 and for other topologies the same stage equations over their own
// distance distribution.
func (m *Model) intraCluster(i int, lamI float64, sc *scratch) intraResult {
	cl := &m.Sys.Clusters[i]
	nNodes := float64(cl.Nodes)
	mtcnI1, mtcsI1 := m.mtcnI1[i], m.mtcsI1[i]
	tcnI1, tcsI1 := m.tcnI1[i], m.tcsI1[i]
	lamI1 := nNodes * (1 - m.pOut[i]) * lamI // Eq. 5
	etaI1 := m.dAvgI1[i] * lamI1 / (channelFactor * m.etaChI1[i])
	dist := m.distI1[i]
	// Every route length shares the node-end stage, so one walk yields S₀
	// for all of them: s0[d−2] is that of the d−1 stage journey.
	s0 := sc.s0[:max(len(dist)-2, 0)]
	stable := suffixService(mtcnI1, etaI1, nil, stage{mtcsI1, etaI1}, s0)
	var res intraResult
	for d := 2; d < len(dist); d++ {
		pd := dist[d]
		if pd == 0 {
			continue
		}
		if d-2 >= stable {
			res.sat = satChainI1
			return res
		}
		res.s += pd * s0[d-2]
		res.r += pd * (float64(d-2)*tcsI1 + tcnI1)
	}
	sigma2 := sq(res.s - mtcnI1) // Eq. 22
	lamSrcI1 := (1 - m.pOut[i]) * lamI
	if m.Opt.PaperLiteral {
		lamSrcI1 = lamI1
	}
	w, err := queueing.MG1Wait(lamSrcI1, res.s, sigma2)
	if err != nil {
		res.sat = satSourceI1
		return res
	}
	res.w = w
	res.t = res.w + res.s + res.r // Eq. 25
	return res
}

// pairResult is the inter-cluster contribution of one destination cluster v
// to source cluster i's average (Eqs. 26–34), or the saturation kind.
type pairResult struct {
	w, s, r, conc float64
	sat           satKind
}

// interPair evaluates the merged inter-cluster journey i→v at per-node rate
// lamI. The journey crosses three link technologies: the ascent through
// cluster i's ECN1, the ICN2 traverse (whose first and last hops are the
// concentrator↔ICN2 links), and the descent through cluster v's ECN1 ending
// on its switch→node link.
func (m *Model) interPair(i, v int, lamI float64, outRate, inRate []float64, sc *scratch) pairResult {
	sys := m.Sys
	cl := &sys.Clusters[i]
	clv := &sys.Clusters[v]
	ni := cl.Levels
	nNodes := float64(cl.Nodes)
	n := float64(sys.TotalNodes())
	c := sys.C()
	mtcsE1i := m.mtcsE1[i]
	mtcnE1v, mtcsE1v := m.mtcnE1[v], m.mtcsE1[v]
	lamE1 := outRate[i] + outRate[v] // Eq. 6
	etaE1 := m.dAvg[i] * lamE1 / (channelFactor * float64(ni) * nNodes)
	// Eq. 7: pair-extrapolated total ICN2 load; Eq. 12 normalization per
	// Options.PaperLiteral. c2 is the interconnect's η channel count per
	// terminal — the tree level count n_c of the paper's Eq. 12, generalized.
	lamI2Total := lamE1 * n / (nNodes + float64(clv.Nodes))
	lamI2PerConc := lamI2Total / float64(c)
	var etaI2 float64
	if m.Opt.PaperLiteral {
		etaI2 = lamI2Total * m.dICN2 / (channelFactor * m.c2)
	} else {
		etaI2 = lamI2PerConc * m.dICN2 / (channelFactor * m.c2)
	}

	ps := pairStages{
		up:   stage{mtcsE1i, etaE1},
		conc: stage{m.mtcsConc, etaI2},
		icn2: stage{m.mtcsI2, etaI2},
		down: stage{mtcsE1v, etaE1},
		mtcn: mtcnE1v,
	}
	// Journeys of one (l, d₂) suffix differ only in their ascent height j,
	// so one walk per suffix yields S₀ for every j. The walks run on the
	// first ascent height forEachJLD visits, which visits every suffix.
	pj := m.probJ[i]
	j0 := 1
	for j0 < len(pj) && pj[j0] == 0 {
		j0++
	}
	jn := len(pj) - 1
	var pr pairResult
	var se, re float64
	forEachJLD(m, i, v, func(j, l, d2 int, p float64) bool {
		blk := l*len(m.dist2) + d2
		s0 := sc.s0[blk*jn : (blk+1)*jn]
		if j == j0 {
			sc.tail = ps.suffix(sc.tail[:0], l, d2)
			sc.n[blk] = suffixService(ps.mtcn, ps.down.eta, sc.tail, ps.up, s0)
		}
		if j > sc.n[blk] {
			pr.sat = satChainE
			return false
		}
		k := j + l + d2 - 1
		se += p * s0[j-1]
		// Eq. 32: the tail pipeline crosses k−1 switch-class links and the
		// final node link. With heterogeneous tiers the sum splits per
		// network; the homogeneous form is kept verbatim so the default
		// evaluation order (and its results) is unchanged.
		if m.hetero {
			re += p * (float64(j-1)*m.tcsE1[i] + 2*m.tcsConc +
				float64(d2-2)*m.tcsI2 + float64(l-1)*m.tcsE1[v] + m.tcnE1[v])
		} else {
			re += p * (float64(k-1)*m.tcsE1[i] + m.tcnE1[v])
		}
		return true
	})
	if pr.sat != satNone {
		return pr
	}
	lamSrcE := m.pOut[i] * lamI
	if m.Opt.PaperLiteral {
		lamSrcE = lamE1
	}
	we, err := queueing.MG1Wait(lamSrcE, se, sq(se-mtcnE1v)) // Eq. 30
	if err != nil {
		pr.sat = satSourceE
		return pr
	}
	// Eq. 33–34: concentrator + dispatcher waits, M/D/1 with the
	// deterministic service M·t_cs of the concentrator links' class.
	var wConc float64
	if m.Opt.PaperLiteral {
		ws, err := queueing.MG1Wait(lamI2PerConc, m.mtcsConc, 0)
		if err != nil {
			pr.sat = satConc
			return pr
		}
		wConc = 2 * ws
	} else {
		wOut, err1 := queueing.MG1Wait(outRate[i], m.mtcsConc, 0)
		wIn, err2 := queueing.MG1Wait(inRate[v], m.mtcsConc, 0)
		if err1 != nil || err2 != nil {
			pr.sat = satConc
			return pr
		}
		wConc = wOut + wIn
	}
	pr.w, pr.s, pr.r, pr.conc = we, se, re, wConc
	return pr
}

// Evaluate computes the model at per-node generation rate λ_g. The Result is
// fully populated even when saturated (with +Inf latencies); the error is
// ErrSaturated in that case.
func (m *Model) Evaluate(lambdaG float64) (Result, error) {
	return m.evaluate(lambdaG, nil, false)
}

// evaluate is the shared driver behind Model.Evaluate and Grid.Evaluate: with
// a nil Grid it allocates a fresh scratch and computes every cluster and
// pair directly; with a Grid it reuses the grid's scratch, consults its
// per-point memo, which returns bit-identical values because equal class IDs
// capture every floating-point input of the corresponding computation, and
// copies a cluster that repeats its predecessor (Grid.repeats). A
// probe, which needs a Grid, only asks whether the point saturates: it
// returns ErrSaturated with a partial Result at the first saturated cluster
// or pair, which is the first point where the full evaluation would mark
// the Result saturated. A probe's per-cluster results go to the grid's
// scratch (Grid.probeRes), which the next probe overwrites, so its caller
// reads the error alone.
func (m *Model) evaluate(lambdaG float64, g *Grid, probe bool) (Result, error) {
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		return Result{}, fmt.Errorf("analytic: invalid λ_g %v", lambdaG)
	}
	sys := m.Sys
	c := sys.C()
	res := Result{LambdaG: lambdaG}
	if probe {
		res.PerCluster = g.probeRes
	} else {
		res.PerCluster = make([]ClusterResult, c)
	}

	var sc *scratch
	if g != nil {
		sc = &g.sc
	} else {
		own := newScratch(m)
		sc = &own
	}
	lam, outRate, inRate := sc.lam, sc.outRate, sc.inRate
	m.fillRates(lambdaG, lam, outRate, inRate, g != nil)
	if g != nil {
		g.beginPoint()
	}

	saturate := func(cr *ClusterResult, where string) {
		cr.Saturated = true
		cr.Latency = math.Inf(1)
		if !res.Saturated {
			res.Saturated = true
			res.Bottleneck = where
		}
	}

	for i := range sys.Clusters {
		cr := &res.PerCluster[i]
		if g != nil && g.repeats(i) {
			*cr = res.PerCluster[i-1]
			continue
		}
		cr.POut = m.pOut[i]

		var ir intraResult
		if g != nil {
			ir = g.intraCluster(i)
		} else {
			ir = m.intraCluster(i, lam[i], sc)
		}
		// The partial S/R sums are kept even when saturated, matching the
		// original single-function evaluation.
		cr.SIntra, cr.RIntra = ir.s, ir.r
		if ir.sat != satNone {
			if probe {
				return res, ErrSaturated
			}
			saturate(cr, satWhere(ir.sat, i, 0))
			continue
		}
		cr.WIntra, cr.TIntra = ir.w, ir.t

		// Inter-cluster (ECN1 + ICN2), averaged over destinations v. The
		// per-pair results accumulate in ascending v order — the same
		// floating-point addition order as the original single-loop form.
		var sumT, sumW, sumS, sumR, sumConc float64
		sat := satNone
		satV := 0
		for v := 0; v < c; v++ {
			if v == i {
				continue
			}
			// The grid hands out its memo slot: copying the result out of
			// a call on each of the C² reads costs a store-forwarding stall.
			var pr *pairResult
			if g != nil {
				pr = g.interPair(i, v)
			} else {
				r := m.interPair(i, v, lam[i], outRate, inRate, sc)
				pr = &r
			}
			if pr.sat != satNone {
				sat, satV = pr.sat, v
				break
			}
			sumW += pr.w
			sumS += pr.s
			sumR += pr.r
			sumT += pr.w + pr.s + pr.r
			sumConc += pr.conc
		}
		if sat != satNone {
			if probe {
				return res, ErrSaturated
			}
			saturate(cr, satWhere(sat, i, satV))
			continue
		}
		inv := 1 / float64(c-1)
		cr.WInter, cr.SInter, cr.RInter = sumW*inv, sumS*inv, sumR*inv
		cr.TInter = sumT * inv // Eq. 31
		cr.WConc = sumConc * inv
		// Eq. 35.
		cr.Latency = (1-m.pOut[i])*cr.TIntra + m.pOut[i]*(cr.TInter+cr.WConc)
	}

	// Eq. 36: weight clusters by their share of generated messages (equal to
	// N_i/N for homogeneous rates).
	var totalWeight float64
	for i := range sys.Clusters {
		totalWeight += float64(sys.Clusters[i].Nodes) * sys.Clusters[i].RateFactor
	}
	for i := range sys.Clusters {
		wgt := float64(sys.Clusters[i].Nodes) * sys.Clusters[i].RateFactor / totalWeight
		res.MeanLatency += wgt * res.PerCluster[i].Latency
	}
	if res.Saturated {
		res.MeanLatency = math.Inf(1)
		return res, ErrSaturated
	}
	return res, nil
}

// forEachJLD iterates the (j, l, d₂) journey-shape distribution of an
// inter-cluster message from i to v with its probability (Eq. 27): ECN1
// ascent height j, descent height l, and ICN2 route length d₂ (2h for a
// fat-tree ICN2, whose distribution makes this the paper's (j, l, h)
// enumeration verbatim). The callback returns false to stop early.
func forEachJLD(m *Model, i, v int, fn func(j, l, d2 int, p float64) bool) {
	pj := m.probJ[i]
	pl := m.probJ[v]
	for j := 1; j < len(pj); j++ {
		if pj[j] == 0 {
			continue
		}
		for l := 1; l < len(pl); l++ {
			if pl[l] == 0 {
				continue
			}
			for d2 := 2; d2 < len(m.dist2); d2++ {
				if m.dist2[d2] == 0 {
					continue
				}
				if !fn(j, l, d2, pj[j]*pl[l]*m.dist2[d2]) {
					return
				}
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

// MeanLatency is a convenience wrapper returning only Eq. 36's value.
func (m *Model) MeanLatency(lambdaG float64) (float64, error) {
	res, err := m.Evaluate(lambdaG)
	return res.MeanLatency, err
}

// SaturationPoint locates the offered traffic at which the model first
// saturates: it finds the first saturated rung of the ladder start·2^k,
// then bisects between that rung and the one below to the given relative
// tolerance. It returns +Inf if no rung up to limit saturates; for start
// 1e-6 and limit 1 the highest rung is start·2^19 ≈ 0.524. The search
// runs on a throwaway Grid: every probe is bit-identical to Model.Evaluate,
// so the point is too, at the memoized evaluator's cost.
func (m *Model) SaturationPoint(start, limit, tol float64) float64 {
	return NewGrid(m).SaturationPoint(start, limit, tol)
}

// SaturationPoint runs Model.SaturationPoint's search through the grid's
// evaluator, reusing its scratch across the probes. A probe stops at the
// first saturated cluster or pair: the search reads only whether a load
// saturates.
func (g *Grid) SaturationPoint(start, limit, tol float64) float64 {
	return saturationPoint(func(l float64) bool {
		_, err := g.m.evaluate(l, g, true)
		return errors.Is(err, ErrSaturated)
	}, start, limit, tol)
}

// saturationPoint is the saturation search shared by the wormhole model and
// the baseline; saturated reports whether a probe load saturates. The rungs
// are start·2^k for k = 0..top, the highest one at most limit (start itself
// is always a rung). A binary search over k finds the first saturated rung,
// and bisection then narrows the bracket between it and the rung below (0
// below the first). Both steps assume that saturated crosses from false to
// true once as the load grows; then the bracket, and so the point, is the
// one a walk up the ladder a rung at a time would find, with about log₂ of
// its probes. The bisection also stops once the midpoint no longer splits
// the bracket: a tolerance below the float spacing (tol = 0) would
// otherwise never end it, and neither would a probe that saturates at every
// load above 0, which halves the bracket into the subnormals.
func saturationPoint(saturated func(float64) bool, start, limit, tol float64) float64 {
	if start <= 0 {
		start = 1e-9
	}
	top := 0
	for r := 2 * start; r <= limit && r < math.Inf(1); r *= 2 {
		top++
	}
	// Rung below is unsaturated (−1: no rung below); rung above saturates
	// (top+1: no rung saturates).
	below, above := -1, top+1
	for above-below > 1 {
		mid := (below + above) / 2
		if saturated(math.Ldexp(start, mid)) {
			above = mid
		} else {
			below = mid
		}
	}
	if above > top {
		return math.Inf(1)
	}
	lo, hi := 0.0, math.Ldexp(start, above)
	if above > 0 {
		lo = math.Ldexp(start, above-1)
	}
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break
		}
		if saturated(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
