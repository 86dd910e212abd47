package analytic

import (
	"fmt"
	"math"

	"mcnet/internal/queueing"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// Baseline is the classical store-and-forward Jackson-style latency model,
// implemented as the comparison baseline for the paper's wormhole-aware
// model: every directed channel is an independent M/M/1 queue whose service
// time is the full message transmission time, and a message pays the
// sojourn of every hop on its path.
//
// This is what pre-wormhole interconnect analyses (and naive back-of-the-
// envelope estimates) compute. It ignores pipelining — a message occupies
// one hop at a time and is fully retransmitted at each — so it
// overestimates latency by roughly the path length even at zero load,
// which is exactly the inaccuracy wormhole-aware models were invented to
// remove. The BaselineComparison experiment quantifies that gap against
// the simulator.
type Baseline struct {
	Sys *system.System
	Par units.Params

	dAvg []float64 // ECN1 tree average distance (inter legs)
	pOut []float64
	// Intra quantities come from the cluster's ICN1 topology; for the
	// default fat tree they reduce to the tree's P(j) re-indexed at d = 2j.
	distI1  [][]float64
	dAvgI1  []float64
	etaChI1 []float64
	// ICN2 route-length distribution, its mean, and the η normalization
	// (tree level count n_c generalized to EtaChannels per terminal).
	dist2 []float64
	dC    float64
	c2    float64
}

// NewBaseline builds the baseline model for a system.
func NewBaseline(sys *system.System, par units.Params) (*Baseline, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	b := &Baseline{Sys: sys, Par: par}
	for i := range sys.Clusters {
		cl := &sys.Clusters[i]
		b.dAvg = append(b.dAvg, cl.ECN1Net.AvgDistance())
		b.pOut = append(b.pOut, sys.POut(i))
		b.distI1 = append(b.distI1, cl.Net.RouteDist())
		b.dAvgI1 = append(b.dAvgI1, cl.Net.AvgDistance())
		b.etaChI1 = append(b.etaChI1, cl.Net.EtaChannels())
	}
	b.dist2 = sys.ICN2RouteDist()
	for d, p := range b.dist2 {
		b.dC += float64(d) * p
	}
	b.c2 = sys.ICN2Net.EtaChannels() / float64(sys.ICN2Net.Nodes())
	return b, nil
}

// hopSojourn returns the M/M/1 sojourn time of one hop with the given
// per-channel arrival rate and mean (message) service time.
func hopSojourn(eta, service float64) (float64, error) {
	w, err := queueing.MM1Wait(eta, 1/service)
	if err != nil {
		return math.Inf(1), err
	}
	return w + service, nil
}

// MeanLatency evaluates the baseline at per-node offered traffic λ_g. The
// channel rates follow the same traffic-spreading logic as the wormhole
// model (Eqs. 10–12 with the physical channel count) so that the two
// models differ only in their treatment of flow control.
func (b *Baseline) MeanLatency(lambdaG float64) (float64, error) {
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		return 0, fmt.Errorf("analytic: invalid λ_g %v", lambdaG)
	}
	sys := b.Sys
	n := float64(sys.TotalNodes())
	c := sys.C()
	mtcs, mtcn := b.Par.MTcs(), b.Par.MTcn()

	var total, weight float64
	for i := range sys.Clusters {
		cl := &sys.Clusters[i]
		lam := lambdaG * cl.RateFactor
		ni := float64(cl.Levels)
		nn := float64(cl.Nodes)

		// Intra path: d store-and-forward hops, node links at the ends.
		etaI1 := nn * (1 - b.pOut[i]) * lam * b.dAvgI1[i] / (2 * b.etaChI1[i])
		var tIntra float64
		intraOK := true
		for d := 2; d < len(b.distI1[i]); d++ {
			pd := b.distI1[i][d]
			if pd == 0 {
				continue
			}
			nodeHop, err1 := hopSojourn(etaI1, mtcn)
			swHop, err2 := hopSojourn(etaI1, mtcs)
			if err1 != nil || err2 != nil {
				intraOK = false
				break
			}
			tIntra += pd * (2*nodeHop + float64(d-2)*swHop)
		}

		// Inter path: n_i+1 hops up, 2h across, n_v+1 hops down, averaged
		// over destination clusters.
		var tInter float64
		interOK := true
		for v := 0; v < c && interOK; v++ {
			if v == i {
				continue
			}
			clv := &sys.Clusters[v]
			lamE := nn*b.pOut[i]*lam + float64(clv.Nodes)*b.pOut[v]*lambdaG*clv.RateFactor
			etaE := lamE * b.dAvg[i] / (2 * ni * nn)
			etaI2 := lamE * n / (nn + float64(clv.Nodes)) / float64(c) * b.dC /
				(2 * b.c2)
			nodeHop, err1 := hopSojourn(etaE, mtcn)
			swHopE, err2 := hopSojourn(etaE, mtcs)
			swHop2, err3 := hopSojourn(etaI2, mtcs)
			if err1 != nil || err2 != nil || err3 != nil {
				interOK = false
				break
			}
			hops := 2*nodeHop + // injection + ejection node links
				(ni+float64(clv.Levels))*swHopE + // ECN1 ascent + descent + conc links
				b.dC*swHop2 // ICN2 crossing
			tInter += hops
		}
		if !intraOK || !interOK {
			return math.Inf(1), ErrSaturated
		}
		tInter /= float64(c - 1)

		li := (1-b.pOut[i])*tIntra + b.pOut[i]*tInter
		w := nn * cl.RateFactor
		total += w * li
		weight += w
	}
	return total / weight, nil
}

// SaturationPoint mirrors Model.SaturationPoint for the baseline.
func (b *Baseline) SaturationPoint(start, limit, tol float64) float64 {
	return saturationPoint(func(l float64) bool {
		_, err := b.MeanLatency(l)
		return err != nil
	}, start, limit, tol)
}
