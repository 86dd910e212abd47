package sweep

import (
	"math"
	"strconv"
	"sync"

	"mcnet/internal/analytic"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// ModelKey canonically identifies a prepared analytic model: everything that
// feeds analytic.New. org, links and topoAxis arrive in canonical spec syntax
// (links is the same string par.Tiers was parsed from; topoAxis is the
// canonical axis value, "" for the default fat trees); the technology floats
// render in hex so every bit counts. The process-wide model memo keys on it.
func ModelKey(model, org, links, topoAxis string, par units.Params) string {
	hf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	key := "model=" + model +
		"|org=" + org +
		"|m=" + strconv.Itoa(par.MessageFlits) +
		"|lm=" + strconv.Itoa(par.FlitBytes) +
		"|links=" + links +
		"|an=" + hf(par.AlphaNet) + "|as=" + hf(par.AlphaSw) + "|bn=" + hf(par.BetaNet)
	// Default-omitting, like Job identity: fat-tree keys are unchanged from
	// before the topology axis existed.
	if topoAxis != "" {
		key += "|topo=" + topoAxis
	}
	return key
}

const (
	// memoCapacity bounds the number of models the process-wide memo holds;
	// the oldest entry is evicted first.
	memoCapacity = 64
	// memoPointCap bounds one model's memoized analysis points; a full map
	// is cleared before the next point is added.
	memoPointCap = 4096
)

// memo shares prepared analytic models process-wide, on the pattern of the
// topology cache: a model is a pure function of its ModelKey, so every user
// in the process (sweep grid placement and analysis columns, the service's
// analyze and compare answers, the studies' model curves) reuses one
// instance, and a repeated question builds and searches nothing. An entry
// takes a ring slot only once its model has built: a build that fails
// drops the entry and evicts nothing, so questions about organizations
// that parse but do not build cannot push good models out.
var memo = struct {
	sync.Mutex
	entries map[string]*Model
	ring    [memoCapacity]string // keys of built entries in build order, for eviction
	next    int                  // ring slot of the next built entry
}{entries: make(map[string]*Model)}

// Model is one memoized analytic model. The Grid evaluator is not safe for
// concurrent use, so mu serializes every use of the entry.
type Model struct {
	mu              sync.Mutex
	key             string
	model, org, top string
	par             units.Params

	grid   *analytic.Grid           // nil until first use
	sat    map[float64]float64      // saturation points by search tolerance
	points map[uint64]analysisPoint // by Float64bits of λ, for the engine's analysis table
}

// ModelFor returns the memo entry of the model preset with the given
// canonical identity (see ModelKey); par must carry the tiers parsed from
// links. The model is built on first use, not here.
func ModelFor(model, org, links, topoAxis string, par units.Params) *Model {
	key := ModelKey(model, org, links, topoAxis, par)
	memo.Lock()
	defer memo.Unlock()
	if m, ok := memo.entries[key]; ok {
		return m
	}
	m := &Model{key: key, model: model, org: org, top: topoAxis, par: par, sat: make(map[float64]float64)}
	memo.entries[key] = m
	return m
}

// gridLocked builds the model on first use; m.mu must be held. A built
// entry takes the next ring slot, evicting that slot's entry; a failed one
// leaves the memo.
func (m *Model) gridLocked() (*analytic.Grid, error) {
	if m.grid != nil {
		return m.grid, nil
	}
	g, err := m.build()
	memo.Lock()
	// An entry dropped by an earlier failed build, or by a memo reset,
	// while this caller held it is no longer the memo's to place.
	if memo.entries[m.key] == m {
		if err != nil {
			delete(memo.entries, m.key)
		} else {
			if old := memo.ring[memo.next]; old != "" {
				delete(memo.entries, old)
			}
			memo.ring[memo.next] = m.key
			memo.next = (memo.next + 1) % memoCapacity
		}
	}
	memo.Unlock()
	if err != nil {
		return nil, err
	}
	m.grid = g
	return g, nil
}

func (m *Model) build() (*analytic.Grid, error) {
	opts, err := ModelOptions(m.model)
	if err != nil {
		return nil, err
	}
	org, err := system.ParseOrganization(m.org)
	if err != nil {
		return nil, err
	}
	if err := system.ApplyTopologyAxis(&org, m.top); err != nil {
		return nil, err
	}
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	am, err := analytic.New(sys, m.par, opts)
	if err != nil {
		return nil, err
	}
	return analytic.NewGrid(am), nil
}

// SaturationPoint returns the load at which the model first saturates,
// searched from 1e-6 to the relative tolerance tol once per entry and
// tolerance (+Inf when the model does not saturate at the highest rung of
// the search's ladder, 1e-6·2^19 ≈ 0.524, the last below λ = 1). Grid
// placement uses placementTol, 1e-3; the service reports the point at 1e-4.
func (m *Model) SaturationPoint(tol float64) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sat, ok := m.sat[tol]; ok {
		return sat, nil
	}
	g, err := m.gridLocked()
	if err != nil {
		return 0, err
	}
	sat := g.SaturationPoint(1e-6, 1, tol)
	m.sat[tol] = sat
	return sat, nil
}

// saturationKnown reports whether the entry's saturation point at tol has
// been searched.
func (m *Model) saturationKnown(tol float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sat[tol]
	return ok
}

// MeanLatency evaluates the model's mean latency (Eq. 36) at lambda; a
// saturated model answers analytic.ErrSaturated. The value is not kept:
// callers that answer the same λ again keep their own answers.
func (m *Model) MeanLatency(lambda float64) (float64, error) {
	res, err := m.Evaluate(lambda)
	return res.MeanLatency, err
}

// Evaluate evaluates the model at lambda on the entry's grid, bit-identical
// to analytic.Model.Evaluate; a saturated model answers analytic.ErrSaturated
// with the Result's Bottleneck set.
func (m *Model) Evaluate(lambda float64) (analytic.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, err := m.gridLocked()
	if err != nil {
		return analytic.Result{}, err
	}
	return g.Evaluate(lambda)
}

// point returns the model's mean latency (Eq. 36) at lambda as an analysis
// point, memoized per λ: NaN and saturated when the model does not evaluate
// there.
func (m *Model) point(lambda float64) (analysisPoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bits := math.Float64bits(lambda)
	if p, ok := m.points[bits]; ok {
		return p, nil
	}
	g, err := m.gridLocked()
	if err != nil {
		return analysisPoint{}, err
	}
	p := analysisPoint{value: Float(math.NaN()), saturated: true}
	if v, err := g.MeanLatency(lambda); err == nil {
		p = analysisPoint{value: Float(v)}
	}
	if m.points == nil || len(m.points) >= memoPointCap {
		m.points = make(map[uint64]analysisPoint)
	}
	m.points[bits] = p
	return p, nil
}
