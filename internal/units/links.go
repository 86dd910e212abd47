// This file implements link-technology heterogeneity: the paper's subject is
// *heterogeneous* multi-cluster systems, and wide-area deployments are
// dominated by per-tier link disparities (a cluster's internal fabric is
// rarely the same technology as the campus backbone joining the clusters).
// LinkClass describes one link technology; TierParams optionally assigns a
// distinct class to each network tier — per-cluster ICN1 and ECN1, the
// global ICN2 tree, and the concentrator/dispatcher bridge links. The zero
// value of TierParams keeps the single global technology vector of Params,
// so every pre-existing configuration (and its results) is unchanged.

package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LinkClass is one link technology: the §3.1.2 parameter triple of a single
// network tier.
type LinkClass struct {
	// AlphaNet is the network (link) latency α_net of this class.
	AlphaNet float64 `json:"alpha_net"`
	// AlphaSw is the switch latency α_sw of this class.
	AlphaSw float64 `json:"alpha_sw"`
	// BetaNet is the transmission time of one byte (inverse bandwidth).
	BetaNet float64 `json:"beta_net"`
}

// Tcn returns t_cn for this class (Eq. 14) at flit length flitBytes.
func (c LinkClass) Tcn(flitBytes int) float64 {
	return c.AlphaNet + 0.5*c.BetaNet*float64(flitBytes)
}

// Tcs returns t_cs for this class (Eq. 15) at flit length flitBytes.
func (c LinkClass) Tcs(flitBytes int) float64 {
	return c.AlphaSw + c.BetaNet*float64(flitBytes)
}

// Validate checks that the class can describe a physical link: latencies
// must be finite and non-negative (zero is a valid idealization — only
// ratios matter), the byte time positive and finite.
func (c LinkClass) Validate() error {
	switch {
	case !isFiniteNonNeg(c.AlphaNet):
		return fmt.Errorf("%w: link class AlphaNet %v", ErrInvalidParams, c.AlphaNet)
	case !isFiniteNonNeg(c.AlphaSw):
		return fmt.Errorf("%w: link class AlphaSw %v", ErrInvalidParams, c.AlphaSw)
	case !isFiniteNonNeg(c.BetaNet) || c.BetaNet == 0:
		return fmt.Errorf("%w: link class BetaNet %v must be positive", ErrInvalidParams, c.BetaNet)
	}
	return nil
}

func isFiniteNonNeg(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1) // v >= 0 is false for NaN
}

// String renders the class in the compact spec syntax accepted by
// ParseLinkClass: "<alpha_net>/<alpha_sw>/<beta_net>".
func (c LinkClass) String() string {
	return formatG(c.AlphaNet) + "/" + formatG(c.AlphaSw) + "/" + formatG(c.BetaNet)
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseLinkClass parses the compact "<alpha_net>/<alpha_sw>/<beta_net>" link
// class syntax, e.g. "0.02/0.01/0.002" for the paper's §4 technology.
// Accepted classes satisfy Validate: finite values, non-negative latencies,
// positive byte time (NaN and ±Inf are rejected like the workload parsers
// reject them).
func ParseLinkClass(spec string) (LinkClass, error) {
	parts := strings.Split(spec, "/")
	if len(parts) != 3 {
		return LinkClass{}, fmt.Errorf("units: link class %q needs <alpha_net>/<alpha_sw>/<beta_net>", spec)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return LinkClass{}, fmt.Errorf("units: link class %q: bad number %q", spec, p)
		}
		vals[i] = v
	}
	c := LinkClass{AlphaNet: vals[0], AlphaSw: vals[1], BetaNet: vals[2]}
	if err := c.Validate(); err != nil {
		return LinkClass{}, fmt.Errorf("units: link class %q: %v", spec, err)
	}
	return c, nil
}

// TierParams optionally overrides the link technology per network tier. A
// nil field means "use the Params base vector" for that tier; the zero value
// therefore reproduces the original single-technology model exactly.
type TierParams struct {
	// ICN1 applies to every cluster's intra-communication network (a cluster
	// can further override it via its ClusterSpec).
	ICN1 *LinkClass `json:"icn1,omitempty"`
	// ECN1 applies to every cluster's inter-communication access network
	// (likewise overridable per cluster).
	ECN1 *LinkClass `json:"ecn1,omitempty"`
	// ICN2 applies to the switch links of the global tree.
	ICN2 *LinkClass `json:"icn2,omitempty"`
	// Conc applies to the concentrator/dispatcher links: the ECN1-root ↔
	// concentrator bridges and the concentrator ↔ ICN2 injection/ejection
	// links (the channels behind the paper's M/D/1 terms, Eqs. 33–34).
	Conc *LinkClass `json:"conc,omitempty"`
}

// Homogeneous reports whether no tier is overridden.
func (t TierParams) Homogeneous() bool {
	return t.ICN1 == nil && t.ECN1 == nil && t.ICN2 == nil && t.Conc == nil
}

// Validate checks every present override.
func (t TierParams) Validate() error {
	for _, tc := range []struct {
		name string
		c    *LinkClass
	}{{"icn1", t.ICN1}, {"ecn1", t.ECN1}, {"icn2", t.ICN2}, {"conc", t.Conc}} {
		if tc.c == nil {
			continue
		}
		if err := tc.c.Validate(); err != nil {
			return fmt.Errorf("%w (tier %s)", err, tc.name)
		}
	}
	return nil
}

// String renders the overrides in the canonical ParseTiers syntax: present
// tiers in the fixed order icn1, ecn1, icn2, conc joined by '+', or the
// empty string when homogeneous. ParseTiers(t.String()) reproduces t, and
// the rendering of an accepted spec is idempotent — the round trip the sweep
// axis canonicalization relies on.
func (t TierParams) String() string {
	var parts []string
	for _, tc := range []struct {
		name string
		c    *LinkClass
	}{{"icn1", t.ICN1}, {"ecn1", t.ECN1}, {"icn2", t.ICN2}, {"conc", t.Conc}} {
		if tc.c != nil {
			parts = append(parts, tc.name+"="+tc.c.String())
		}
	}
	return strings.Join(parts, "+")
}

// ParseTiers parses a per-tier link technology spec: '+'-separated
// <tier>=<link class> assignments over the tiers icn1, ecn1, icn2 and conc,
// e.g.
//
//	icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004
//
// The empty string and the name "uniform" mean "no overrides" (the
// homogeneous default). Assigning one tier twice is an error.
func ParseTiers(spec string) (TierParams, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "uniform" {
		return TierParams{}, nil
	}
	var t TierParams
	for _, part := range splitTiers(spec) {
		name, classSpec, ok := strings.Cut(part, "=")
		if !ok {
			return TierParams{}, fmt.Errorf("units: tier spec %q: segment %q needs <tier>=<class>", spec, part)
		}
		c, err := ParseLinkClass(classSpec)
		if err != nil {
			return TierParams{}, fmt.Errorf("units: tier spec %q: %v", spec, err)
		}
		var slot **LinkClass
		switch strings.TrimSpace(name) {
		case "icn1":
			slot = &t.ICN1
		case "ecn1":
			slot = &t.ECN1
		case "icn2":
			slot = &t.ICN2
		case "conc":
			slot = &t.Conc
		default:
			return TierParams{}, fmt.Errorf("units: tier spec %q: unknown tier %q (icn1, ecn1, icn2, conc)", spec, name)
		}
		if *slot != nil {
			return TierParams{}, fmt.Errorf("units: tier spec %q: tier %q assigned twice", spec, name)
		}
		cc := c
		*slot = &cc
	}
	return t, nil
}

// splitTiers splits a tier spec at the '+' between assignments. A '+' right
// after 'e' or 'E' is an exponent sign, as in the "1e+06" LinkClass.String
// renders for large values, not a separator.
func splitTiers(spec string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(spec); i++ {
		if spec[i] == '+' && (i == 0 || (spec[i-1] != 'e' && spec[i-1] != 'E')) {
			parts = append(parts, spec[start:i])
			start = i + 1
		}
	}
	return append(parts, spec[start:])
}

// Base returns the Params' global technology vector as a link class.
func (p Params) Base() LinkClass {
	return LinkClass{AlphaNet: p.AlphaNet, AlphaSw: p.AlphaSw, BetaNet: p.BetaNet}
}

func (p Params) tier(c *LinkClass) LinkClass {
	if c != nil {
		return *c
	}
	return p.Base()
}

// ICN1Class returns the effective system-wide ICN1 link class (clusters may
// override it further; see system.ClusterSpec).
func (p Params) ICN1Class() LinkClass { return p.tier(p.Tiers.ICN1) }

// ECN1Class returns the effective system-wide ECN1 link class.
func (p Params) ECN1Class() LinkClass { return p.tier(p.Tiers.ECN1) }

// ICN2Class returns the effective link class of the global tree's switch
// links.
func (p Params) ICN2Class() LinkClass { return p.tier(p.Tiers.ICN2) }

// ConcClass returns the effective link class of the concentrator/dispatcher
// links.
func (p Params) ConcClass() LinkClass { return p.tier(p.Tiers.Conc) }
