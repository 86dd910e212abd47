package mcsim

import (
	"fmt"
	"strings"
)

// ChannelGroup classifies the simulator's directed links for utilization
// reporting. The grouping mirrors the components of the analytical model:
// ICN1 and ECN1 channels (Eqs. 10–11), the concentrator links (Eq. 33) and
// the ICN2 channels (Eq. 12).
type ChannelGroup int

const (
	// GroupICN1Node are node↔switch links of the intra-cluster networks.
	GroupICN1Node ChannelGroup = iota
	// GroupICN1Switch are switch↔switch links of the intra-cluster networks.
	GroupICN1Switch
	// GroupECN1Node are node↔switch links of the inter-cluster access
	// networks.
	GroupECN1Node
	// GroupECN1Switch are switch↔switch links of the inter-cluster access
	// networks.
	GroupECN1Switch
	// GroupConcentrator are the concentrator-owned links: the ECN1
	// root↔concentrator links plus the concentrator↔ICN2 injection and
	// ejection links. The injection link is the single serialization point
	// the model's Eq. 33 queues describe.
	GroupConcentrator
	// GroupICN2 are the switch↔switch links of the global inter-cluster
	// network.
	GroupICN2

	numChannelGroups
)

// String names the group.
func (g ChannelGroup) String() string {
	switch g {
	case GroupICN1Node:
		return "ICN1 node links"
	case GroupICN1Switch:
		return "ICN1 switch links"
	case GroupECN1Node:
		return "ECN1 node links"
	case GroupECN1Switch:
		return "ECN1 switch links"
	case GroupConcentrator:
		return "concentrator links"
	case GroupICN2:
		return "ICN2 links"
	default:
		return "unknown"
	}
}

// ChannelGroupStats aggregates the post-run state of one link class.
type ChannelGroupStats struct {
	Group    ChannelGroup
	Channels int
	// MeanUtilization and MaxUtilization summarize the fraction of
	// simulated time the links were held.
	MeanUtilization float64
	MaxUtilization  float64
	// MaxQueue is the largest number of worms ever waiting on one link of
	// the group (the source/concentrator queue depth of the model).
	MaxQueue int
	// Grants is the total number of channel acquisitions in the group.
	Grants uint64
}

// String renders one row.
func (s ChannelGroupStats) String() string {
	return fmt.Sprintf("%-20s channels=%-6d util mean=%.4f max=%.4f  maxQ=%-5d grants=%d",
		s.Group, s.Channels, s.MeanUtilization, s.MaxUtilization, s.MaxQueue, s.Grants)
}

// groupOf resolves a global channel index to its group using the layout
// recorded at construction.
func (s *Sim) groupOf(c int32) ChannelGroup {
	for i := range s.clusters {
		cn := &s.clusters[i]
		switch {
		case c >= cn.icn1Base && c < cn.icn1Base+int32(cn.icn1.Channels()):
			if cn.icn1.IsNodeChannel(int(c - cn.icn1Base)) {
				return GroupICN1Node
			}
			return GroupICN1Switch
		case c >= cn.ecn1Base && c < cn.ecn1Base+int32(cn.ecn1.Channels()):
			if cn.ecn1.IsNodeChannel(int(c - cn.ecn1Base)) {
				return GroupECN1Node
			}
			return GroupECN1Switch
		case c >= cn.rootUpBase && c < cn.rootDownBase+int32(cn.ecn1.Roots()):
			return GroupConcentrator
		}
	}
	if s.icn2.IsNodeChannel(int(c - s.icn2Base)) {
		return GroupConcentrator
	}
	return GroupICN2
}

// ChannelStats aggregates utilization, queueing and grant counts per link
// class. Call after Run; the utilizations refer to the full simulated
// interval [0, SimTime].
func (s *Sim) ChannelStats() []ChannelGroupStats {
	out := make([]ChannelGroupStats, numChannelGroups)
	for g := range out {
		out[g].Group = ChannelGroup(g)
	}
	sums := make([]float64, numChannelGroups)
	for c := int32(0); c < int32(s.net.Channels()); c++ {
		g := s.groupOf(c)
		st := &out[g]
		st.Channels++
		u := s.net.Utilization(c)
		sums[g] += u
		if u > st.MaxUtilization {
			st.MaxUtilization = u
		}
		if q := s.net.MaxQueueLen(c); q > st.MaxQueue {
			st.MaxQueue = q
		}
		st.Grants += s.net.Grants(c)
	}
	for g := range out {
		if out[g].Channels > 0 {
			out[g].MeanUtilization = sums[g] / float64(out[g].Channels)
		}
	}
	return out
}

// FormatChannelStats renders all groups as a table.
func (s *Sim) FormatChannelStats() string {
	var b strings.Builder
	for _, st := range s.ChannelStats() {
		fmt.Fprintf(&b, "%v\n", st)
	}
	return b.String()
}
