package units

import (
	"math"
	"testing"
)

// FuzzParseLinkClass checks the link-technology parsers on arbitrary spec
// strings, with the same invariants the workload parsers earned: never
// panic, never accept NaN/Inf/negative values, and whatever is accepted
// renders to a canonical form that re-parses to itself (the round trip the
// sweep axis canonicalization and the organization Format rely on).
func FuzzParseLinkClass(f *testing.F) {
	for _, seed := range []string{
		"0.02/0.01/0.002", "0/0/0.5", "1e-3/2e-3/4e-3",
		"", "0.02", "0.02/0.01", "0.02/0.01/0.002/9",
		"-1/0/1", "NaN/0/1", "0/Inf/1", "0/0/0", "0/0/-0.002", "a/b/c",
		"icn2=0.04/0.02/0.004", "conc=0.03/0.015/0.004+icn1=0.01/0.005/0.001",
		"icn2=0.04/0.02/0.004+icn2=0.04/0.02/0.004", "uniform",
		"icn1=NaN/0/1", "bogus=1/2/3", "icn2", "=1/2/3",
		"conc=0/0/1000000", "icn2=1e+22/0/1e-7+conc=0/2E+30/1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if c, err := ParseLinkClass(spec); err == nil {
			for name, v := range map[string]float64{
				"AlphaNet": c.AlphaNet, "AlphaSw": c.AlphaSw, "BetaNet": c.BetaNet,
			} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("link class %q: accepted bad %s %v", spec, name, v)
				}
			}
			if c.BetaNet == 0 {
				t.Fatalf("link class %q: accepted zero bandwidth", spec)
			}
			canonical := c.String()
			c2, err := ParseLinkClass(canonical)
			if err != nil {
				t.Fatalf("canonical %q (from %q) does not reparse: %v", canonical, spec, err)
			}
			if c2 != c {
				t.Fatalf("round trip changed class: %+v vs %+v", c, c2)
			}
			// An accepted class must yield finite derived service times.
			if v := c.Tcn(256); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("link class %q: bad Tcn %v", spec, v)
			}
			if v := c.Tcs(256); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("link class %q: bad Tcs %v", spec, v)
			}
		}
		if tp, err := ParseTiers(spec); err == nil {
			if err := tp.Validate(); err != nil {
				t.Fatalf("tier spec %q: accepted but invalid: %v", spec, err)
			}
			canonical := tp.String()
			tp2, err := ParseTiers(canonical)
			if err != nil {
				t.Fatalf("canonical tiers %q (from %q) do not reparse: %v", canonical, spec, err)
			}
			if tp2.String() != canonical {
				t.Fatalf("tier canonical form unstable: %q → %q", canonical, tp2.String())
			}
		}
	})
}
