package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// analyzeRequest is the body of POST /v1/analyze: one operating point for
// the pure analytic model (the paper's Eqs. 14–34). Specs use the same
// strings as the CLI tools: org in ParseOrganization syntax (with @icn1=/
// @ecn1= per-cluster suffixes), links in units.ParseTiers syntax.
type analyzeRequest struct {
	Org       string      `json:"org"`
	Lambda    float64     `json:"lambda"`
	Flits     int         `json:"flits,omitempty"`
	FlitBytes int         `json:"flit_bytes,omitempty"`
	Links     string      `json:"links,omitempty"`
	Tech      *sweep.Tech `json:"tech,omitempty"`
	Model     string      `json:"model,omitempty"`
}

// analyzeResponse echoes the canonicalized scenario and carries the model's
// answer. Latency is null when the model is saturated at the requested load;
// SaturationPoint is null when the model never saturates.
type analyzeResponse struct {
	Org             string      `json:"org"`
	Flits           int         `json:"flits"`
	FlitBytes       int         `json:"flit_bytes"`
	Links           string      `json:"links"`
	Model           string      `json:"model"`
	Lambda          float64     `json:"lambda"`
	Latency         sweep.Float `json:"latency"`
	Saturated       bool        `json:"saturated"`
	SaturationPoint sweep.Float `json:"saturation_point"`
}

// scenario is a canonicalized analyze request: the cache key of its rendered
// response is the canonical field rendering, so equivalent spellings
// ("org1" vs the expanded spec, "uniform" vs "") share one entry.
type scenario struct {
	org       string // canonical ParseOrganization syntax
	flits     int
	flitBytes int
	links     string // canonical tier spec, "" = homogeneous
	tech      sweep.Tech
	model     string
	lambda    float64
}

// key renders the scenario canonically; floats in hex so every bit counts.
func (c scenario) key() string {
	hf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	return "org=" + c.org +
		"|m=" + strconv.Itoa(c.flits) +
		"|lm=" + strconv.Itoa(c.flitBytes) +
		"|links=" + c.links +
		"|model=" + c.model +
		"|an=" + hf(c.tech.AlphaNet) + "|as=" + hf(c.tech.AlphaSw) + "|bn=" + hf(c.tech.BetaNet) +
		"|lambda=" + hf(c.lambda)
}

// params materializes the scenario's technology parameters.
func (c scenario) params() (units.Params, error) {
	par := units.Default()
	par.AlphaNet, par.AlphaSw, par.BetaNet = c.tech.AlphaNet, c.tech.AlphaSw, c.tech.BetaNet
	tiers, err := units.ParseTiers(c.links)
	if err != nil {
		return par, err
	}
	par.Tiers = tiers
	par = par.WithMessage(c.flits, c.flitBytes)
	return par, par.Validate()
}

// canonicalize validates and canonicalizes an analyze request's fields.
// The organization is parsed and re-rendered but not materialized: the
// model build does that. Model "none" is rejected: an analyze without an
// analytic curve has nothing to answer.
func canonicalize(org string, lambda float64, flits, flitBytes int, links string, tech *sweep.Tech, model string) (scenario, error) {
	var c scenario
	var err error
	if c.org, err = formatOrgSpec(org); err != nil {
		return c, err
	}
	if c.flits, c.flitBytes, err = resolveGeometry(flits, flitBytes); err != nil {
		return c, err
	}
	tiers, err := units.ParseTiers(links)
	if err != nil {
		return c, err
	}
	c.links = tiers.String()
	c.tech = resolveTech(tech)

	c.model = model
	if c.model == "" {
		c.model = "calibrated"
	}
	if c.model == "none" {
		return c, errors.New(`model "none" carries no analytic curve; use "calibrated" or "paper-literal"`)
	}
	if _, err := sweep.ModelOptions(c.model); err != nil {
		return c, err
	}

	if err := checkLambda(lambda); err != nil {
		return c, err
	}
	c.lambda = lambda

	if _, err := c.params(); err != nil {
		return c, err
	}
	return c, nil
}

// linksName makes the canonical empty (homogeneous) links spec explicit for
// response documents, mirroring Job.LinksName.
func linksName(links string) string {
	if links == "" {
		return "uniform"
	}
	return links
}

// aliasPrefix starts every byte-alias key of the response cache. Canonical
// scenario keys start with "org=", so the two never collide.
const aliasPrefix = "body="

// maxAliasBytes bounds the request bodies kept as alias keys: an alias holds
// its body for as long as it stays in the cache, and every accepted analyze
// document is a few hundred bytes. A longer body is answered by canonical
// key every time.
const maxAliasBytes = 4 << 10

// handleAnalyze implements POST /v1/analyze: the synchronous model fast
// path. Rendered responses are LRU-cached and single-flighted by canonical
// scenario, so repeated identical requests are answered byte-identically
// without re-evaluating the model. Every 200 also stores the request's
// bytes as an alias of its response, so a byte-identical repeat is answered
// before any decoding, canonicalization or validation. Only 200s are
// aliased, and a response is a function of its canonical scenario, so an
// alias can never answer differently from the full path.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	alias := ""
	if len(body) <= maxAliasBytes {
		alias = aliasPrefix + string(body)
		if b, ok := s.resp.Get(alias); ok {
			s.writeAnalyze(w, b.([]byte), true)
			return
		}
	}
	var req analyzeRequest
	if err := decodeBody(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := canonicalize(req.Org, req.Lambda, req.Flits, req.FlitBytes, req.Links, req.Tech, req.Model)
	if err != nil {
		// A build failure outranks later fields' errors.
		if berr := checkOrgBuilds(req.Org); berr != nil {
			err = berr
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := c.key()
	v, ok := s.resp.Get(key)
	// A response shared from another caller's in-flight render is a hit:
	// this request did not pay for a model evaluation.
	hit := ok
	if !ok {
		v, err, hit = s.flight.Do("analyze|"+key, func() (any, error) {
			if b, ok := s.resp.Get(key); ok {
				return b, nil
			}
			b, err := s.renderAnalyze(c)
			if err != nil {
				return nil, err
			}
			s.resp.Put(key, b)
			return b, nil
		})
		if err != nil {
			// The model build materializes the organization; an
			// organization that does not build is the request's fault.
			status := http.StatusUnprocessableEntity
			if errors.Is(err, system.ErrBadOrganization) {
				status = http.StatusBadRequest
			}
			writeError(w, status, "%v", err)
			return
		}
	}
	if alias != "" {
		s.resp.Put(alias, v)
	}
	s.writeAnalyze(w, v.([]byte), hit)
}

// writeAnalyze writes a 200 analyze response and counts it as a response
// cache hit or miss.
func (s *Server) writeAnalyze(w http.ResponseWriter, b []byte, hit bool) {
	if hit {
		s.respHits.Add(1)
		w.Header().Set("X-Cache", "hit")
	} else {
		s.respMisses.Add(1)
		w.Header().Set("X-Cache", "miss")
	}
	writeRaw(w, http.StatusOK, b)
}

// renderAnalyze evaluates the model at the scenario's operating point and
// renders the response document once; the bytes are what the cache stores.
func (s *Server) renderAnalyze(c scenario) ([]byte, error) {
	lat, saturated, satPoint, err := s.evalModel(c)
	if err != nil {
		return nil, err
	}
	resp := analyzeResponse{
		Org:             c.org,
		Flits:           c.flits,
		FlitBytes:       c.flitBytes,
		Links:           linksName(c.links),
		Model:           c.model,
		Lambda:          c.lambda,
		Latency:         lat,
		Saturated:       saturated,
		SaturationPoint: satPoint,
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// evalModel evaluates the scenario's mean latency (Eq. 36) at its load,
// plus the saturation point the figures stop at, searched to 1e-4. Both
// come from the process-wide model memo: the latency is one grid
// evaluation, and the saturation point is searched once per model.
func (s *Server) evalModel(c scenario) (lat sweep.Float, saturated bool, satPoint sweep.Float, err error) {
	par, err := c.params()
	if err != nil {
		return 0, false, 0, err
	}
	// Topology selection rides inside the org spec itself (@topo=/@icn2topo=
	// suffixes survive formatOrgSpec), so the analyze path needs no
	// separate axis value.
	m := sweep.ModelFor(c.model, c.org, c.links, "", par)
	if lat, saturated, err = modelLatency(m, c.lambda); err != nil {
		return 0, false, 0, err
	}
	sat, err := m.SaturationPoint(1e-4)
	if err != nil {
		return 0, false, 0, err
	}
	return lat, saturated, sweep.Float(sat), nil
}

// modelLatency evaluates the model's mean latency (Eq. 36) at lambda.
// Saturation is an answer, not an error: it returns a NaN latency with
// saturated set.
func modelLatency(m *sweep.Model, lambda float64) (lat sweep.Float, saturated bool, err error) {
	v, err := m.MeanLatency(lambda)
	switch {
	case errors.Is(err, analytic.ErrSaturated):
		return sweep.Float(math.NaN()), true, nil
	case err != nil:
		return 0, false, err
	}
	return sweep.Float(v), false, nil
}
