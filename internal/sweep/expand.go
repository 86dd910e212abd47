package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"mcnet/internal/mcsim"
	"mcnet/internal/system"
	"mcnet/internal/topo"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// Job is one fully resolved simulation of the expanded grid. The exported
// fields up to Drain are the job's identity: they determine the simulation
// outcome completely, and Key hashes exactly them. The *Index fields are the
// job's coordinates on the spec's axes, kept for mapping results back onto
// figures; they do not enter the key, so reordering an axis in a spec does
// not invalidate cached outcomes.
type Job struct {
	// Org is the organization in canonical ParseOrganization syntax.
	Org string `json:"org"`
	// Flits (M) and FlitBytes (L_m) are the message geometry.
	Flits     int `json:"flits"`
	FlitBytes int `json:"flit_bytes"`
	// Pattern and Routing are the axis spec strings (see ParsePattern,
	// ParseRouting).
	Pattern string `json:"pattern"`
	Routing string `json:"routing"`
	// Arrival and SizeDist are the canonical workload axis spec strings. The
	// empty string encodes the defaults (Poisson arrivals, fixed-length
	// messages) and is omitted from the identity, so jobs of pre-workload
	// specs keep their cache keys and derived seeds.
	Arrival  string `json:"arrival,omitempty"`
	SizeDist string `json:"size_dist,omitempty"`
	// Links is the canonical link-heterogeneity axis value (units.ParseTiers
	// syntax). The empty string encodes the homogeneous default and is
	// omitted from the identity, so jobs of pre-link-axis specs keep their
	// cache keys and derived seeds.
	Links string `json:"links,omitempty"`
	// Topo is the canonical topology axis value (topo.ParseAxis syntax).
	// The empty string encodes the default fat tree everywhere and is
	// omitted from the identity, so jobs of pre-topology specs keep their
	// cache keys and derived seeds.
	Topo string `json:"topo,omitempty"`
	// Lambda is λ_g, the per-node offered traffic.
	Lambda float64 `json:"lambda"`
	// Rep is the replication index; SimSeed is the derived simulator seed.
	Rep     int    `json:"rep"`
	SimSeed uint64 `json:"sim_seed"`
	// AlphaNet, AlphaSw and BetaNet are the resolved technology parameters.
	AlphaNet float64 `json:"alpha_net"`
	AlphaSw  float64 `json:"alpha_sw"`
	BetaNet  float64 `json:"beta_net"`
	// Warmup, Measure and Drain are the measurement phase message counts.
	Warmup  int `json:"warmup"`
	Measure int `json:"measure"`
	Drain   int `json:"drain"`

	// Index is the job's position in expansion order; the remaining indices
	// are its coordinates on the spec's axes.
	Index        int `json:"index"`
	OrgIndex     int `json:"org_index"`
	MsgIndex     int `json:"msg_index"`
	PatternIndex int `json:"pattern_index"`
	RoutingIndex int `json:"routing_index"`
	LinksIndex   int `json:"links_index"`
	TopoIndex    int `json:"topo_index"`
	ArrivalIndex int `json:"arrival_index"`
	SizeIndex    int `json:"size_index"`
	LoadIndex    int `json:"load_index"`
}

// ArrivalName returns the arrival axis value with the default made explicit.
func (j Job) ArrivalName() string {
	if j.Arrival == "" {
		return "poisson"
	}
	return j.Arrival
}

// SizeName returns the size axis value with the default made explicit.
func (j Job) SizeName() string {
	if j.SizeDist == "" {
		return "fixed"
	}
	return j.SizeDist
}

// LinksName returns the link axis value with the default made explicit.
func (j Job) LinksName() string {
	if j.Links == "" {
		return "uniform"
	}
	return j.Links
}

// TopoName returns the topology axis value with the default made explicit.
func (j Job) TopoName() string {
	if j.Topo == "" {
		return "fattree"
	}
	return j.Topo
}

// TopoOrg parses the job's organization and folds its topology axis value
// onto it, yielding the organization the job actually simulates and models.
func (j Job) TopoOrg() (system.Organization, error) {
	org, err := system.ParseOrganization(j.Org)
	if err != nil {
		return org, err
	}
	if err := system.ApplyTopologyAxis(&org, j.Topo); err != nil {
		return org, err
	}
	return org, nil
}

// Params materializes the job's technology parameters, including any
// link-heterogeneity overrides.
func (j Job) Params() (units.Params, error) {
	par := units.Params{
		AlphaNet: j.AlphaNet, AlphaSw: j.AlphaSw, BetaNet: j.BetaNet,
		FlitBytes: j.FlitBytes, MessageFlits: j.Flits,
	}
	tiers, err := units.ParseTiers(j.Links)
	if err != nil {
		return par, err
	}
	par.Tiers = tiers
	return par, nil
}

// Config translates the job into the simulator configuration that runs it:
// the organization with its topology axis folded in, the technology
// parameters, the pattern, routing and workload axis values, the phases and
// the seed. It is the one translation from job strings to an mcsim.Config;
// callers add their observation hooks (progress, telemetry, recording,
// replay) to the result.
func (j Job) Config() (mcsim.Config, error) {
	org, err := j.TopoOrg()
	if err != nil {
		return mcsim.Config{}, err
	}
	pattern, err := ParsePattern(j.Pattern)
	if err != nil {
		return mcsim.Config{}, err
	}
	mode, err := ParseRouting(j.Routing)
	if err != nil {
		return mcsim.Config{}, err
	}
	arrival, err := workload.ParseArrival(j.Arrival)
	if err != nil {
		return mcsim.Config{}, err
	}
	sizes, err := workload.ParseSize(j.SizeDist)
	if err != nil {
		return mcsim.Config{}, err
	}
	par, err := j.Params()
	if err != nil {
		return mcsim.Config{}, err
	}
	return mcsim.Config{
		Org: org, Par: par, LambdaG: j.Lambda,
		Warmup: j.Warmup, Measure: j.Measure, Drain: j.Drain,
		Seed: j.SimSeed, Pattern: pattern, RoutingMode: mode,
		Arrival: arrival, Sizes: sizes,
	}, nil
}

// appendIdentity appends the outcome-determining fields, rendered
// canonically, to b. Floats use hex notation, which round-trips every bit.
// The workload fields are appended only when they deviate from the
// defaults, so every identity (and hence cache key and derived seed) from
// before the workload axes existed is preserved verbatim.
func (j *Job) appendIdentity(b []byte) []byte {
	hf := func(b []byte, name string, v float64) []byte {
		return strconv.AppendFloat(append(b, name...), v, 'x', -1, 64)
	}
	itoa := func(b []byte, name string, v int) []byte {
		return strconv.AppendInt(append(b, name...), int64(v), 10)
	}
	str := func(b []byte, name, v string) []byte { return append(append(b, name...), v...) }
	b = str(b, "org=", j.Org)
	b = itoa(b, "|flits=", j.Flits)
	b = itoa(b, "|flitbytes=", j.FlitBytes)
	b = str(b, "|pattern=", j.Pattern)
	b = str(b, "|routing=", j.Routing)
	b = hf(b, "|lambda=", j.Lambda)
	b = itoa(b, "|rep=", j.Rep)
	b = hf(b, "|alphanet=", j.AlphaNet)
	b = hf(b, "|alphasw=", j.AlphaSw)
	b = hf(b, "|betanet=", j.BetaNet)
	b = itoa(b, "|warmup=", j.Warmup)
	b = itoa(b, "|measure=", j.Measure)
	b = itoa(b, "|drain=", j.Drain)
	b = strconv.AppendUint(append(b, "|seed="...), j.SimSeed, 10)
	if j.Arrival != "" {
		b = str(b, "|arrival=", j.Arrival)
	}
	if j.SizeDist != "" {
		b = str(b, "|size=", j.SizeDist)
	}
	if j.Links != "" {
		b = str(b, "|links=", j.Links)
	}
	if j.Topo != "" {
		b = str(b, "|topo=", j.Topo)
	}
	return b
}

// identityBuf is the stack buffer an identity is built in. It holds every
// identity the builtin specs expand to (the longest, hetero-links', is 315
// bytes); a longer one grows onto the heap.
type identityBuf [512]byte

// Key returns the job's content hash, the cache key of its simulation
// outcome: the SHA-256 of its identity.
func (j Job) Key() string {
	var buf identityBuf
	sum := sha256.Sum256(j.appendIdentity(buf[:0]))
	return hex.EncodeToString(sum[:])
}

// DeriveSeed computes a job's simulator seed from a sweep's base seed and
// the job's identity (with the SimSeed field itself still zero), giving
// every job an independent deterministic stream: the first eight bytes of
// the SHA-256 of the identity followed by the base seed's eight bytes. It
// is exported for the serving layer, which seeds ad-hoc jobs exactly like a
// sweep with the default base seed would — so a served simulation and a
// CLI sweep of the same point share one cache entry.
func DeriveSeed(base uint64, j Job) uint64 {
	var buf identityBuf
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64(j.appendIdentity(buf[:0]), base))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Expand normalizes and validates the spec and returns its full job grid in
// the canonical order org → message → pattern → routing → links → topology →
// arrival → size → load → rep.
func Expand(spec Spec) ([]Job, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	arrivals, err := canonicalArrivals(spec.Arrivals)
	if err != nil {
		return nil, err
	}
	sizes, err := canonicalSizes(spec.Sizes)
	if err != nil {
		return nil, err
	}
	links, err := canonicalLinks(spec.Links)
	if err != nil {
		return nil, err
	}
	topos, err := canonicalTopos(spec.Topologies)
	if err != nil {
		return nil, err
	}
	orgs := make([]string, len(spec.Orgs))
	for i, org := range spec.Orgs {
		if orgs[i], err = canonicalOrg(org); err != nil {
			return nil, err
		}
	}
	grids, err := loadGrids(spec, orgs, links, topos)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for oi, canonical := range orgs {
		for mi, msg := range spec.Messages {
			par, err := spec.params(msg, "")
			if err != nil {
				return nil, err
			}
			for pi, pat := range spec.Patterns {
				for ri, rt := range spec.Routing {
					for lki, lk := range links {
						for ti, tp := range topos {
							for ai, arr := range arrivals {
								for si, sz := range sizes {
									for li, lambda := range grids[oi] {
										for rep := 0; rep < spec.Reps; rep++ {
											j := Job{
												Org:       canonical,
												Flits:     msg.Flits,
												FlitBytes: msg.FlitBytes,
												Pattern:   pat,
												Routing:   rt,
												Links:     lk,
												Topo:      tp,
												Arrival:   arr,
												SizeDist:  sz,
												Lambda:    lambda,
												Rep:       rep,
												AlphaNet:  par.AlphaNet,
												AlphaSw:   par.AlphaSw,
												BetaNet:   par.BetaNet,
												Warmup:    spec.Warmup,
												Measure:   spec.Measure,
												Drain:     spec.Drain,

												Index:        len(jobs),
												OrgIndex:     oi,
												MsgIndex:     mi,
												PatternIndex: pi,
												RoutingIndex: ri,
												LinksIndex:   lki,
												TopoIndex:    ti,
												ArrivalIndex: ai,
												SizeIndex:    si,
												LoadIndex:    li,
											}
											j.SimSeed = DeriveSeed(spec.BaseSeed, j)
											jobs = append(jobs, j)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// canonicalTopos maps topology axis specs to canonical axis values, with the
// default (fat tree everywhere) encoded as the empty string (see Job.Topo).
func canonicalTopos(specs []string) ([]string, error) {
	out := make([]string, len(specs))
	for i, spec := range specs {
		cl, gl, err := topo.ParseAxis(spec)
		if err != nil {
			return nil, err
		}
		out[i] = topo.FormatAxis(cl, gl)
	}
	return out, nil
}

// canonicalLinks maps link axis specs to canonical tier specs, with the
// homogeneous default encoded as the empty string (see Job.Links).
func canonicalLinks(specs []string) ([]string, error) {
	out := make([]string, len(specs))
	for i, spec := range specs {
		t, err := units.ParseTiers(spec)
		if err != nil {
			return nil, err
		}
		out[i] = t.String()
	}
	return out, nil
}

// canonicalArrivals maps arrival axis specs to canonical names, with the
// default (Poisson) encoded as the empty string (see Job.Arrival).
func canonicalArrivals(specs []string) ([]string, error) {
	out := make([]string, len(specs))
	for i, spec := range specs {
		a, err := workload.ParseArrival(spec)
		if err != nil {
			return nil, err
		}
		if name := a.Name(); name != (workload.Poisson{}).Name() {
			out[i] = name
		}
	}
	return out, nil
}

// canonicalSizes maps size axis specs to canonical names, with the default
// (fixed) encoded as the empty string (see Job.SizeDist).
func canonicalSizes(specs []string) ([]string, error) {
	out := make([]string, len(specs))
	for i, spec := range specs {
		d, err := workload.ParseSize(spec)
		if err != nil {
			return nil, err
		}
		if name := d.Name(); name != (workload.Fixed{}).Name() {
			out[i] = name
		}
	}
	return out, nil
}

// canonicalOrg maps any accepted organization spec (including the "org1"
// shortcuts) to its canonical form, so equivalent specs share cache keys.
func canonicalOrg(spec string) (string, error) {
	org, err := system.ParseOrganization(spec)
	if err != nil {
		return "", err
	}
	return system.Format(org), nil
}

// placementTol is the relative tolerance of the saturation searches that
// place load grids.
const placementTol = 1e-3

// placement is one model's grid-placement search: the index of its
// organization, the model (nil when the spec's parameters did not resolve,
// err saying why) and, once searched, its saturation point or error.
type placement struct {
	org      int
	model    *Model
	sat      float64
	err      error
	searched bool
}

// loadGrids resolves the offered-traffic axis per organization: either the
// explicit lambda list (shared), or Points loads ending at MaxFraction × the
// organization's analytic saturation point maximized over the message and
// link axes (so all of an organization's curves share one grid, as the
// paper's figures do). orgs, links and topos are the spec's canonical axis
// values; the models and their saturation points come from the
// process-wide memo.
func loadGrids(spec Spec, orgs, links, topos []string) ([][]float64, error) {
	grids := make([][]float64, len(orgs))
	if len(spec.Loads.Lambdas) > 0 {
		for i := range grids {
			grids[i] = spec.Loads.Lambdas
		}
		return grids, nil
	}
	ps := placements(spec, orgs, links, topos)
	searchPlacements(ps)
	// Results combine in spec order, so the first error in spec order is
	// the one reported, whichever search finished first.
	for oi := range orgs {
		var sat float64
		for ; len(ps) > 0 && ps[0].org == oi; ps = ps[1:] {
			switch p := &ps[0]; {
			case p.model == nil:
				return nil, fmt.Errorf("sweep: spec %q: %v", spec.Name, p.err)
			case p.err != nil:
				return nil, fmt.Errorf("sweep: spec %q: org %q: %v", spec.Name, spec.Orgs[oi], p.err)
			case !math.IsInf(p.sat, 1) && p.sat > sat:
				sat = p.sat
			}
		}
		if sat == 0 {
			return nil, fmt.Errorf("sweep: spec %q: org %q has no finite saturation point", spec.Name, spec.Orgs[oi])
		}
		xMax := sat * spec.Loads.MaxFraction
		grid := make([]float64, spec.Loads.Points)
		for i := range grid {
			grid[i] = xMax * float64(i+1) / float64(spec.Loads.Points)
		}
		grids[oi] = grid
	}
	return grids, nil
}

// placements lists the saturation searches that place the spec's load
// grids, in spec order: per organization, one per topology, message and
// link axis value. Grid placement always uses the calibrated model, even
// when the spec attaches a different (or no) analytic curve to the results:
// the grid is a sampling decision, not a modeling claim. The saturation
// maximum runs over the topology axis too, so every topology's curve fits
// on the shared grid; with the default axis this materializes exactly the
// pre-topology systems.
func placements(spec Spec, orgs, links, topos []string) []placement {
	var ps []placement
	for oi, org := range orgs {
		for _, topoAxis := range topos {
			for _, msg := range spec.Messages {
				for _, lk := range links {
					par, err := spec.params(msg, lk)
					p := placement{org: oi, err: err}
					if err == nil {
						p.model = ModelFor("calibrated", org, lk, topoAxis, par)
					}
					ps = append(ps, p)
				}
			}
		}
	}
	return ps
}

// unsearched returns the indices of the placements whose model has no
// memoized placement point yet: none on a warm pass.
func unsearched(ps []placement) []int {
	var todo []int
	for i, p := range ps {
		if p.model != nil && !p.model.saturationKnown(placementTol) {
			todo = append(todo, i)
		}
	}
	return todo
}

// searchPlacements runs every placement's search. When more than one is
// unsearched, those run first on up to GOMAXPROCS goroutines; every search
// left, all of them on a warm pass, is a memo read in the caller's
// goroutine.
func searchPlacements(ps []placement) {
	todo := unsearched(ps)
	if workers := min(runtime.GOMAXPROCS(0), len(todo)); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(todo)); k = next.Add(1) - 1 {
					ps[todo[k]].search()
				}
			}()
		}
		wg.Wait()
	}
	for i := range ps {
		if p := &ps[i]; p.model != nil && !p.searched {
			p.search()
		}
	}
}

// search runs the placement's saturation search on its memoized model.
func (p *placement) search() {
	p.sat, p.err = p.model.SaturationPoint(placementTol)
	p.searched = true
}
