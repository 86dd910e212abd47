// Package system describes heterogeneous multi-cluster organizations: a set
// of clusters of different sizes (the paper's heterogeneity category under
// study), each equipped with an intra-communication network (ICN1) and an
// inter-communication access network (ECN1) of identical m-port n_i-tree
// shape, all joined by a global ICN2 tree through concentrator/dispatcher
// devices.
//
// The package also ships the two concrete organizations of the paper's
// Table 1, used by the validation experiments (Figures 3 and 4).
package system

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mcnet/internal/routing"
	"mcnet/internal/topo"
	"mcnet/internal/units"
)

// ClusterSpec describes a group of identically shaped clusters.
type ClusterSpec struct {
	// Count is the number of clusters with this shape.
	Count int
	// Levels is n_i: each cluster's ICN1/ECN1 is an m-port n_i-tree, so the
	// cluster has 2(m/2)^n_i nodes.
	Levels int
	// RateFactor optionally scales the injection rate of nodes in these
	// clusters relative to λ_g (0 means 1.0). This models per-cluster
	// processing-power heterogeneity, an extension beyond the paper's
	// assumption 3 (see DESIGN.md, Extension 2).
	RateFactor float64
	// ICN1 and ECN1 optionally override the link technology of these
	// clusters' intra- and access networks (nil = the tier default of
	// units.Params). This is the per-cluster face of link-technology
	// heterogeneity: clusters built from different fabric generations keep
	// their own α_net, α_sw and β_net (see DESIGN.md, link heterogeneity).
	ICN1 *units.LinkClass
	ECN1 *units.LinkClass
	// Topo selects these clusters' ICN1 topology at the same switch budget
	// as the m-port n_i-tree (zero value = the fat tree itself; see
	// internal/topo). The access network ECN1 always stays an m-port
	// n_i-tree: it is the attachment fabric the concentrators hang off.
	Topo topo.Spec
}

// Organization is the user-facing description of a multi-cluster system.
type Organization struct {
	Name  string
	Ports int // m, common to every network in the system (paper §4)
	Specs []ClusterSpec
	// ICN2Topo selects the global interconnect joining the clusters (zero
	// value = the smallest sufficient m-port n_c-tree).
	ICN2Topo topo.Spec
}

// Cluster is one materialized cluster.
type Cluster struct {
	Index      int
	Levels     int // n_i
	Nodes      int // N_i = 2(m/2)^n_i
	NodeBase   int // global id of this cluster's first node
	RateFactor float64
	// ECN1Net is the cluster's ECN1 access network, the m-port n_i-tree
	// (balanced-routing instance; its concentrator legs are the same under
	// every routing mode). It is also Net when Topo is the default fat tree.
	ECN1Net *topo.FatTree
	// ICN1 and ECN1 carry the spec's per-cluster link-class overrides
	// (nil = tier default).
	ICN1 *units.LinkClass
	ECN1 *units.LinkClass
	// Topo is the spec's ICN1 topology selection and Net its canonical
	// (balanced-routing) instance; the simulator re-resolves the spec for
	// other routing modes through the topo cache.
	Topo topo.Spec
	Net  topo.Topology
}

// System is a validated, materialized organization.
type System struct {
	Name     string
	Ports    int
	Clusters []Cluster
	// ICN2Net is the global interconnect joining the clusters; its "node"
	// positions host the concentrators, with only the first C populated
	// when the topology's terminal capacity exceeds the cluster count.
	ICN2Net    topo.Topology
	totalNodes int
}

// ErrBadOrganization reports an organization that cannot be materialized.
var ErrBadOrganization = errors.New("system: invalid organization")

// New validates and materializes an organization.
func New(org Organization) (*System, error) {
	if org.Ports < 2 || org.Ports%2 != 0 {
		return nil, fmt.Errorf("%w: ports m=%d must be even and ≥ 2", ErrBadOrganization, org.Ports)
	}
	if len(org.Specs) == 0 {
		return nil, fmt.Errorf("%w: no cluster specs", ErrBadOrganization)
	}
	// The first pass validates every spec and counts the clusters, so an
	// organization the ICN2 cannot host is rejected before any cluster
	// exists; the count saturates rather than overflow.
	type shape struct {
		ecn1 *topo.FatTree
		net  topo.Topology
	}
	shapes := make([]shape, len(org.Specs))
	c := 0
	for i, spec := range org.Specs {
		if spec.Count <= 0 {
			return nil, fmt.Errorf("%w: spec count %d", ErrBadOrganization, spec.Count)
		}
		if spec.RateFactor < 0 || math.IsNaN(spec.RateFactor) || math.IsInf(spec.RateFactor, 1) {
			return nil, fmt.Errorf("%w: rate factor %v must be finite and >= 0", ErrBadOrganization, spec.RateFactor)
		}
		for _, lc := range []*units.LinkClass{spec.ICN1, spec.ECN1} {
			if lc == nil {
				continue
			}
			if err := lc.Validate(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadOrganization, err)
			}
		}
		ecn1, err := topo.NewFatTree(org.Ports, spec.Levels, routing.Balanced)
		if err != nil {
			return nil, fmt.Errorf("%w: cluster shape: %v", ErrBadOrganization, err)
		}
		net, err := topo.New(spec.Topo, org.Ports, spec.Levels, routing.Balanced)
		if err != nil {
			return nil, fmt.Errorf("%w: cluster topology: %v", ErrBadOrganization, err)
		}
		shapes[i] = shape{ecn1, net}
		c += min(spec.Count, math.MaxInt-c)
	}
	if c < 2 {
		return nil, fmt.Errorf("%w: a multi-cluster system needs ≥ 2 clusters, got %d", ErrBadOrganization, c)
	}
	// The smallest instance of the selected global topology that can host
	// all C concentrators (for the default fat tree: the smallest n_c with
	// 2(m/2)^n_c ≥ C, exact for the paper's organizations).
	icn2, err := topo.NewGlobal(org.ICN2Topo, org.Ports, c, routing.Balanced)
	if err != nil {
		return nil, fmt.Errorf("%w: ICN2: %v", ErrBadOrganization, err)
	}
	if icn2.Nodes() < c {
		return nil, fmt.Errorf("%w: m=%d ICN2 cannot host %d clusters", ErrBadOrganization, org.Ports, c)
	}
	s := &System{Name: org.Name, Ports: org.Ports, Clusters: make([]Cluster, 0, c), ICN2Net: icn2}
	for i, spec := range org.Specs {
		rate := spec.RateFactor
		if rate == 0 {
			rate = 1
		}
		sh := shapes[i]
		for range spec.Count {
			s.Clusters = append(s.Clusters, Cluster{
				Index:      len(s.Clusters),
				Levels:     spec.Levels,
				Nodes:      sh.ecn1.Nodes(),
				NodeBase:   s.totalNodes,
				RateFactor: rate,
				ECN1Net:    sh.ecn1,
				ICN1:       spec.ICN1,
				ECN1:       spec.ECN1,
				Topo:       spec.Topo,
				Net:        sh.net,
			})
			s.totalNodes += sh.ecn1.Nodes()
		}
	}
	return s, nil
}

// MustNew is New for statically known-good organizations; it panics on error.
func MustNew(org Organization) *System {
	s, err := New(org)
	if err != nil {
		panic(err)
	}
	return s
}

// C returns the number of clusters.
func (s *System) C() int { return len(s.Clusters) }

// TotalNodes returns N, the number of nodes across all clusters.
func (s *System) TotalNodes() int { return s.totalNodes }

// ICN2Exact reports whether the cluster count exactly fills the global
// interconnect's terminal positions (for the default tree: C == 2(m/2)^n_c,
// as in both of the paper's Table 1 organizations).
func (s *System) ICN2Exact() bool { return s.ICN2Net.Nodes() == s.C() }

// POut returns P_o(i) of Eq. 13: the probability that a message generated in
// cluster i leaves the cluster, which under uniform destinations is the
// fraction of the other nodes that live elsewhere.
func (s *System) POut(i int) float64 {
	return float64(s.totalNodes-s.Clusters[i].Nodes) / float64(s.totalNodes-1)
}

// ClusterOf maps a global node id to (cluster index, node id local to the
// cluster's trees).
func (s *System) ClusterOf(global int) (ci, local int) {
	// Clusters are few (tens); linear scan with early exit is simplest and
	// cache-friendly. Binary search is not worth it at these sizes.
	for i := range s.Clusters {
		c := &s.Clusters[i]
		if global < c.NodeBase+c.Nodes {
			return i, global - c.NodeBase
		}
	}
	panic(fmt.Sprintf("system: node %d out of range [0,%d)", global, s.totalNodes))
}

// GlobalNode maps (cluster index, local node id) to the global node id.
func (s *System) GlobalNode(ci, local int) int {
	return s.Clusters[ci].NodeBase + local
}

// ICN2RouteDist returns the ICN2 route-length distribution over ordered
// cluster pairs: index d holds the probability that the ICN2 route between
// a uniformly random ordered pair of distinct occupied concentrator
// positions crosses d channels. An exactly filled ICN2 occupies every
// terminal, so the answer is the topology's own RouteDist (for a fat tree,
// Eq. 4 re-indexed at d = 2h, since a route with its NCA at level h crosses
// 2h channels), which callers must not modify. A partially populated one
// gets the exact enumeration over the occupied positions.
func (s *System) ICN2RouteDist() []float64 {
	if s.ICN2Exact() {
		return s.ICN2Net.RouteDist()
	}
	c := s.C()
	counts := make([]float64, s.ICN2Net.MaxRouteLen()+1)
	for i := 0; i < c; i++ {
		for v := 0; v < c; v++ {
			if i == v {
				continue
			}
			counts[s.ICN2Net.RouteLen(i, v)]++
		}
	}
	total := float64(c * (c - 1))
	for d := range counts {
		counts[d] /= total
	}
	return counts
}

// LinkHeterogeneous reports whether any cluster overrides its networks' link
// technology. (System-wide tier overrides live in units.Params and are not
// visible here.)
func (s *System) LinkHeterogeneous() bool {
	for i := range s.Clusters {
		if s.Clusters[i].ICN1 != nil || s.Clusters[i].ECN1 != nil {
			return true
		}
	}
	return false
}

// Table1Org1 returns the first organization of the paper's Table 1:
// N=1120 nodes, C=32 clusters, m=8 ports; 12 clusters with n_i=1,
// 16 with n_i=2 and 4 with n_i=3.
func Table1Org1() Organization {
	return Organization{
		Name:  "Table1-Org1 (N=1120, C=32, m=8)",
		Ports: 8,
		Specs: []ClusterSpec{
			{Count: 12, Levels: 1},
			{Count: 16, Levels: 2},
			{Count: 4, Levels: 3},
		},
	}
}

// Table1Org2 returns the second organization of the paper's Table 1:
// N=544 nodes, C=16 clusters, m=4 ports; 8 clusters with n_i=3, 3 with
// n_i=4 and 5 with n_i=5.
func Table1Org2() Organization {
	return Organization{
		Name:  "Table1-Org2 (N=544, C=16, m=4)",
		Ports: 4,
		Specs: []ClusterSpec{
			{Count: 8, Levels: 3},
			{Count: 3, Levels: 4},
			{Count: 5, Levels: 5},
		},
	}
}

// Uniform returns an organization of `count` identical clusters, the
// homogeneous baseline a heterogeneous organization is compared against.
func Uniform(name string, ports, count, levels int) Organization {
	return Organization{
		Name:  name,
		Ports: ports,
		Specs: []ClusterSpec{{Count: count, Levels: levels}},
	}
}

// Summary renders the organization in the style of the paper's Table 1.
func (s *System) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	fmt.Fprintf(&b, "  N=%d  C=%d  m=%d  ICN2=%v (%s populated)\n",
		s.totalNodes, s.C(), s.Ports, s.ICN2Net,
		map[bool]string{true: "fully", false: "partially"}[s.ICN2Exact()])
	type group struct {
		levels, count, nodes int
		tp                   topo.Topology
	}
	var groups []group
	for _, c := range s.Clusters {
		if len(groups) > 0 && groups[len(groups)-1].levels == c.Levels && groups[len(groups)-1].tp == c.Net {
			groups[len(groups)-1].count++
			continue
		}
		groups = append(groups, group{levels: c.Levels, count: 1, nodes: c.Nodes, tp: c.Net})
	}
	for _, g := range groups {
		fmt.Fprintf(&b, "  %2d clusters × (n_i=%d, N_i=%d, N_sw=%d)",
			g.count, g.levels, g.nodes, g.tp.Switches())
		if g.tp.Kind() != topo.KindFatTree {
			fmt.Fprintf(&b, " ICN1=%v", g.tp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
