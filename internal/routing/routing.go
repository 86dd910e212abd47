// Package routing names the ascent discipline of the fat tree's up*/down*
// routing (§2 of the paper, following Lin's scheme). The routes themselves
// live with the tree in internal/topo; this package holds only the mode,
// which sweeps, CLIs and the simulator configuration select by name:
//
//   - Balanced (default): the up-port at level l is the destination's l-th
//     digit (the classic d-mod-k discipline), the "balanced traffic
//     distribution" the paper invokes to rule out switch contention.
//
//   - RandomUp (ablation): the up-port is drawn from a per-message
//     selector, modeling an oblivious random ascent. Used by the routing
//     ablation experiment.
package routing

import "fmt"

// Mode selects the ascent discipline.
type Mode int

const (
	// Balanced selects the destination-digit (d-mod-k) ascent.
	Balanced Mode = iota
	// RandomUp selects a selector-driven oblivious ascent.
	RandomUp
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Balanced:
		return "balanced"
	case RandomUp:
		return "random-up"
	default:
		return "unknown"
	}
}

// ParseMode resolves a mode name as produced by Mode.String — the single
// source of truth for the spec grammar shared by the sweep axes, the CLIs
// and the job server. ParseMode(m.String()) == m for every valid mode.
func ParseMode(spec string) (Mode, error) {
	switch spec {
	case "balanced":
		return Balanced, nil
	case "random-up":
		return RandomUp, nil
	}
	return 0, fmt.Errorf("routing: unknown mode %q (balanced, random-up)", spec)
}
