// Package units defines the technology parameters shared by the analytical
// model and the simulator: link and switch latencies, link bandwidth, and the
// message geometry (flit size and message length).
//
// The parameter names follow §3.1.2 of the paper:
//
//	α_net — network (link) latency
//	α_sw  — switch latency
//	β_net — transmission time of one byte (inverse bandwidth)
//	L_m   — length of one flit in bytes
//	M     — message length in flits
//
// Two derived connection service times are used throughout (Eqs. 14–15):
//
//	t_cn = α_net + ½·β_net·L_m   (node ↔ switch)
//	t_cs = α_sw  +   β_net·L_m   (switch ↔ switch)
package units

import (
	"errors"
	"fmt"
)

// Params collects the network technology parameters. All times are expressed
// in the paper's abstract "time units"; only ratios matter for the shapes of
// the latency curves.
type Params struct {
	// AlphaNet is the network (link) latency α_net. The paper's validation
	// uses 0.02 time units.
	AlphaNet float64
	// AlphaSw is the switch latency α_sw. The paper's validation uses 0.01
	// time units.
	AlphaSw float64
	// BetaNet is the transmission time of one byte, i.e. the inverse of the
	// link bandwidth. The paper's validation uses a bandwidth of 500 bytes
	// per time unit, hence β_net = 1/500.
	BetaNet float64
	// FlitBytes is L_m, the length of each flit in bytes (paper: 256 or 512).
	FlitBytes int
	// MessageFlits is M, the fixed message length in flits (paper: 32 or 64).
	MessageFlits int
	// Tiers optionally overrides the link technology per network tier
	// (cluster ICN1/ECN1, global ICN2, concentrator/dispatcher links). The
	// zero value keeps the single global vector above for every tier, which
	// reproduces the paper's homogeneous-technology model exactly.
	Tiers TierParams
}

// Default returns the baseline parameter set used throughout the paper's
// validation section: bandwidth 500 bytes/time-unit, α_net = 0.02,
// α_sw = 0.01, L_m = 256 bytes and M = 32 flits.
func Default() Params {
	return Params{
		AlphaNet:     0.02,
		AlphaSw:      0.01,
		BetaNet:      1.0 / 500.0,
		FlitBytes:    256,
		MessageFlits: 32,
	}
}

// WithMessage returns a copy of p with the message geometry replaced.
func (p Params) WithMessage(flits, flitBytes int) Params {
	p.MessageFlits = flits
	p.FlitBytes = flitBytes
	return p
}

// Tcn returns t_cn, the time to transmit one flit across a node-to-switch
// (or switch-to-node) connection (Eq. 14).
func (p Params) Tcn() float64 {
	return p.AlphaNet + 0.5*p.BetaNet*float64(p.FlitBytes)
}

// Tcs returns t_cs, the time to transmit one flit across a switch-to-switch
// connection (Eq. 15).
func (p Params) Tcs() float64 {
	return p.AlphaSw + p.BetaNet*float64(p.FlitBytes)
}

// MTcn returns M·t_cn, the minimum service time of a message on a node link.
func (p Params) MTcn() float64 {
	return float64(p.MessageFlits) * p.Tcn()
}

// MTcs returns M·t_cs, the service time of a message on a switch link.
func (p Params) MTcs() float64 {
	return float64(p.MessageFlits) * p.Tcs()
}

// ErrInvalidParams reports a parameter set that cannot describe a physical
// network (negative or non-finite latencies, non-positive bandwidth or
// message geometry).
var ErrInvalidParams = errors.New("units: invalid parameters")

// Validate checks that every parameter is physically meaningful: latencies
// must be finite and non-negative (a zero latency is a valid idealization —
// only the ratios of the time parameters shape the latency curves), the byte
// time β_net positive and finite, and the message geometry positive. Any
// configured tier override must satisfy the same constraints.
func (p Params) Validate() error {
	switch {
	case !isFiniteNonNeg(p.AlphaNet):
		return fmt.Errorf("%w: AlphaNet %v must be finite and >= 0", ErrInvalidParams, p.AlphaNet)
	case !isFiniteNonNeg(p.AlphaSw):
		return fmt.Errorf("%w: AlphaSw %v must be finite and >= 0", ErrInvalidParams, p.AlphaSw)
	case !isFiniteNonNeg(p.BetaNet) || p.BetaNet == 0:
		return fmt.Errorf("%w: BetaNet %v must be finite and > 0", ErrInvalidParams, p.BetaNet)
	case p.FlitBytes <= 0:
		return fmt.Errorf("%w: FlitBytes %d <= 0", ErrInvalidParams, p.FlitBytes)
	case p.MessageFlits <= 0:
		return fmt.Errorf("%w: MessageFlits %d <= 0", ErrInvalidParams, p.MessageFlits)
	}
	return p.Tiers.Validate()
}

// String renders the parameters in the notation of the paper; configured
// tier overrides are appended in ParseTiers syntax.
func (p Params) String() string {
	s := fmt.Sprintf("α_net=%g α_sw=%g β_net=%g L_m=%dB M=%d flits",
		p.AlphaNet, p.AlphaSw, p.BetaNet, p.FlitBytes, p.MessageFlits)
	if !p.Tiers.Homogeneous() {
		s += " tiers[" + p.Tiers.String() + "]"
	}
	return s
}
