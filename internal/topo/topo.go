// Package topo is the topology layer: every network the simulator and the
// analytic model use goes through it. The paper's m-port n-tree (FatTree)
// carries its own geometry and up*/down* route tables and serves all three
// tiers — ICN1, the ECN1 access networks and ICN2 — next to a seeded
// random-regular (Jellyfish-style) intra-cluster topology and a
// Dragonfly-style global interconnect. All three implement the Topology
// contract: dense channel enumeration, zero-alloc route appenders over
// precomputed tables, and the structural distributions the analytic model
// consumes. Built instances are shared process-wide through one cache. The
// distributions are computed at construction; the fat tree's and the
// jellyfish's route tables on the first route, so a topology only the model
// reads never builds them.
//
// # Channel-id layout
//
// Every topology exposes Channels() dense directed-channel identifiers in
// [0, Channels()). Identifiers below 2·Nodes() are the node (injection /
// delivery) channels, which the simulator maps to the endpoint link class
// (ICN1 node links intra-cluster, concentrator links on the global tier);
// the rest, from 2·Nodes() on, are switch→switch channels carrying the
// network's switch link class. Routes are sequences of these identifiers,
// starting with the source's injection channel and ending with the
// destination's delivery channel.
//
// # Distribution semantics
//
// RouteDist()[d] is the probability that a message between a uniformly
// random ordered pair of distinct endpoints crosses exactly d channels;
// AvgDistance is its mean. EtaChannels is the channel-count denominator the
// analytic rate equations spread load over: Channels()/2, which for the
// m-port n-tree equals n·N — the exact quantity the paper's Eqs. 10–12 use.
package topo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"mcnet/internal/routing"
)

// Topology is the contract every interconnect plugin satisfies. All methods
// are safe for concurrent use after construction; AppendRoute never
// allocates when the destination slice has capacity.
type Topology interface {
	// Kind names the plugin ("fattree", "jellyfish", "dragonfly").
	Kind() string
	// Nodes is the number of attachable endpoints (processing nodes
	// intra-cluster; terminal ports on a global interconnect).
	Nodes() int
	// Switches is the switch count — the budget equal-cost comparisons hold
	// fixed.
	Switches() int
	// Channels is the number of dense directed-channel identifiers; the
	// first 2·Nodes() are the endpoint (injection and delivery) channels.
	Channels() int
	// MaxRouteLen bounds the channel count of any route.
	MaxRouteLen() int
	// RouteLen is the channel count of the (minimal) route src→dst.
	RouteLen(src, dst int) int
	// AppendRoute appends the route's channel ids, offset by base, to path.
	// sel supplies selector bits for topologies with routing freedom.
	AppendRoute(path []int32, base int32, src, dst int, sel uint64) []int32
	// RouteDist returns P(route length = d channels) over uniform ordered
	// pairs of distinct endpoints; index d. Callers must not modify it.
	RouteDist() []float64
	// AvgDistance is the mean of RouteDist.
	AvgDistance() float64
	// EtaChannels is the per-direction channel count (Channels()/2) the
	// analytic channel-rate denominators spread the network's load over.
	EtaChannels() float64
	// CheckStructure verifies the wiring invariants by enumeration.
	CheckStructure() error
	String() string
}

// Registered topology kinds.
const (
	KindFatTree   = "fattree"
	KindDragonfly = "dragonfly"
	KindJellyfish = "jellyfish"
)

// Spec selects a topology in an org spec or sweep axis. The zero value is
// the paper's fat tree, so old specs parse and format unchanged.
type Spec struct {
	// Kind is "" (fat tree) or a registered kind name.
	Kind string `json:"kind,omitempty"`
	// Seed selects the wiring of seeded topologies (jellyfish); 0 uses the
	// topology's fixed default wiring.
	Seed uint64 `json:"seed,omitempty"`
}

// IsZero reports whether s is the default (fat-tree) spec.
func (s Spec) IsZero() bool { return s == Spec{} }

// String renders the canonical spec text: "fattree", "jellyfish",
// "jellyfish.s<seed>" or "dragonfly".
func (s Spec) String() string {
	switch s.Kind {
	case KindJellyfish:
		if s.Seed != 0 {
			return fmt.Sprintf("%s.s%d", KindJellyfish, s.Seed)
		}
		return KindJellyfish
	case "", KindFatTree:
		return KindFatTree
	default:
		return s.Kind
	}
}

// ParseSpec parses a topology spec ("" and "fattree" mean the default fat
// tree; "jellyfish" takes an optional ".s<seed>" wiring seed).
func ParseSpec(text string) (Spec, error) {
	switch {
	case text == "" || text == KindFatTree:
		return Spec{}, nil
	case text == KindDragonfly:
		return Spec{Kind: KindDragonfly}, nil
	case text == KindJellyfish:
		return Spec{Kind: KindJellyfish}, nil
	case strings.HasPrefix(text, KindJellyfish+".s"):
		raw := text[len(KindJellyfish)+2:]
		seed, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("topo: bad jellyfish seed %q: %v", raw, err)
		}
		return Spec{Kind: KindJellyfish, Seed: seed}, nil
	default:
		return Spec{}, fmt.Errorf("topo: unknown topology %q (want fattree, jellyfish[.s<seed>] or dragonfly)", text)
	}
}

// ValidCluster reports whether s can serve as an intra-cluster (ICN1)
// topology.
func (s Spec) ValidCluster() error {
	switch s.Kind {
	case "", KindFatTree, KindJellyfish:
		return nil
	default:
		return fmt.Errorf("topo: %s is not an intra-cluster topology (want fattree or jellyfish[.s<seed>])", s)
	}
}

// ValidGlobal reports whether s can serve as the global (ICN2) interconnect.
func (s Spec) ValidGlobal() error {
	switch s.Kind {
	case "", KindFatTree, KindDragonfly:
		return nil
	default:
		return fmt.Errorf("topo: %s is not a global interconnect (want fattree or dragonfly)", s)
	}
}

// ParseAxis parses a sweep-axis topology value "<cluster>[+<global>]": the
// intra-cluster topology applied to every cluster, optionally followed by
// the ICN2 global interconnect. "" selects the defaults (all fat tree).
func ParseAxis(text string) (cluster, global Spec, err error) {
	if text == "" {
		return Spec{}, Spec{}, nil
	}
	head, tail, hasTail := strings.Cut(text, "+")
	if cluster, err = ParseSpec(head); err != nil {
		return Spec{}, Spec{}, err
	}
	if err = cluster.ValidCluster(); err != nil {
		return Spec{}, Spec{}, err
	}
	if hasTail {
		if global, err = ParseSpec(tail); err != nil {
			return Spec{}, Spec{}, err
		}
		if err = global.ValidGlobal(); err != nil {
			return Spec{}, Spec{}, err
		}
	}
	return cluster, global, nil
}

// FormatAxis renders the canonical axis value; the all-default combination
// formats as "" so default-omitting job identities stay stable.
func FormatAxis(cluster, global Spec) string {
	if global.IsZero() {
		if cluster.IsZero() {
			return ""
		}
		return cluster.String()
	}
	return cluster.String() + "+" + global.String()
}

// cache shares built topologies process-wide: wiring, route tables and
// distributions are pure functions of the key, and topologies are immutable
// after construction apart from route tables built once under a sync.Once,
// so concurrent simulations reuse one instance.
var cache sync.Map // cacheKey -> Topology

// cacheKey identifies a built topology. mode is set only for the fat tree,
// the one topology whose routes depend on the routing mode.
type cacheKey struct {
	kind   string
	seed   uint64
	ports  int
	size   int // levels for intra-cluster shapes, terminal demand for global
	global bool
	mode   routing.Mode
}

func cached(key cacheKey, build func() (Topology, error)) (Topology, error) {
	if t, ok := cache.Load(key); ok {
		return t.(Topology), nil
	}
	t, err := build()
	if err != nil {
		return nil, err
	}
	// Duplicate builds under contention are harmless: both are identical
	// (seeded construction is deterministic) and LoadOrStore keeps one.
	got, _ := cache.LoadOrStore(key, t)
	return got.(Topology), nil
}

// New builds (or returns the cached) intra-cluster topology for the given
// switch budget: the m-port n-tree of (ports, levels), or a random-regular
// graph over the same switch count and node count.
func New(spec Spec, ports, levels int, mode routing.Mode) (Topology, error) {
	if err := spec.ValidCluster(); err != nil {
		return nil, err
	}
	if spec.Kind == KindJellyfish {
		key := cacheKey{kind: KindJellyfish, seed: spec.Seed, ports: ports, size: levels}
		return cached(key, func() (Topology, error) {
			if err := checkShape(ports, levels); err != nil {
				return nil, err
			}
			switches := switchCount(ports, levels)
			if switches > maxJellyfishSwitches {
				return nil, fmt.Errorf("%w: a jellyfish over m=%d n=%d has %d switches, more than %d",
					errBadShape, ports, levels, switches, maxJellyfishSwitches)
			}
			return newJellyfish(nodeCount(ports, levels), switches, ports, spec.Seed)
		})
	}
	ft, err := NewFatTree(ports, levels, mode)
	if err != nil {
		return nil, err
	}
	return ft, nil
}

// GlobalLevels returns the height of the fat tree the global interconnect
// needs to attach count concentrators with ports-port switches — the sizing
// rule the system layer has always used for ICN2.
func GlobalLevels(ports, count int) int {
	k := ports / 2
	levels, capacity := 1, 2*k
	for capacity < count && k > 1 {
		levels++
		if capacity > math.MaxInt/k {
			break // this level's capacity is past any int count
		}
		capacity *= k
	}
	return levels
}

// NewGlobal builds (or returns the cached) global interconnect with at
// least count terminal ports: the smallest adequate m-port n-tree, or the
// smallest balanced Dragonfly.
func NewGlobal(spec Spec, ports, count int, mode routing.Mode) (Topology, error) {
	if err := spec.ValidGlobal(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "", KindFatTree:
		return New(Spec{}, ports, GlobalLevels(ports, count), mode)
	case KindDragonfly:
		key := cacheKey{kind: KindDragonfly, size: count, global: true}
		return cached(key, func() (Topology, error) { return newDragonfly(count) })
	default:
		return nil, fmt.Errorf("topo: unknown kind %q", spec.Kind)
	}
}
