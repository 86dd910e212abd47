package serve

import (
	"fmt"
	"math"

	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// The helpers below are the request-canonicalization steps of the analyze
// fast path; the simulate/compare job path shares the geometry and load
// checks and leaves the rest to sweep.Expand. Cache keys hang off these
// renderings, so equivalent spellings must canonicalize to the byte.

// checkOrgBuilds parses and materializes an organization spec, so its shape
// errors can outrank later fields' errors.
func checkOrgBuilds(spec string) error {
	org, err := system.ParseOrganization(spec)
	if err != nil {
		return err
	}
	_, err = system.New(org)
	return err
}

// formatOrgSpec parses and canonically re-renders an organization spec
// without materializing it.
func formatOrgSpec(spec string) (string, error) {
	org, err := system.ParseOrganization(spec)
	if err != nil {
		return "", err
	}
	return system.Format(org), nil
}

// resolveGeometry fills the default message geometry (the paper's M=32,
// L_m=256) for zero fields and rejects non-positive ones.
func resolveGeometry(flits, flitBytes int) (int, int, error) {
	d := units.Default()
	if flits == 0 {
		flits = d.MessageFlits
	}
	if flitBytes == 0 {
		flitBytes = d.FlitBytes
	}
	if flits <= 0 || flitBytes <= 0 {
		return 0, 0, fmt.Errorf("message geometry must be positive (flits=%d, flit_bytes=%d)", flits, flitBytes)
	}
	return flits, flitBytes, nil
}

// resolveTech applies the paper's §4 technology defaults under an optional
// override.
func resolveTech(override *sweep.Tech) sweep.Tech {
	if override != nil {
		return *override
	}
	d := units.Default()
	return sweep.Tech{AlphaNet: d.AlphaNet, AlphaSw: d.AlphaSw, BetaNet: d.BetaNet}
}

// checkLambda rejects non-positive and non-finite offered loads.
func checkLambda(lambda float64) error {
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return fmt.Errorf("lambda must be positive and finite, got %v", lambda)
	}
	return nil
}
