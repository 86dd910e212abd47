package topo

import "fmt"

// Dragonfly is a balanced Dragonfly global interconnect for the ICN2 tier,
// after Kim et al. and the Dragonfly+ line of work the related papers
// study: g groups of a routers, each router with p terminal ports and h
// global ports, balanced as a = 2h, p = h, g = a·h + 1 so that every group
// pair is joined by exactly one global link (the canonical palmtree
// arrangement). The smallest balanced instance with enough terminals for
// the cluster count is chosen, and routing is minimal:
// terminal→router[→local]→global[→local]→router→terminal, at most five
// channels.
//
// Channel layout: [0,T) terminal injection channels, [T,2T) terminal
// delivery channels (both carry the concentrator link class in the
// simulator, like the tree's node channels), then a(a−1) directed local
// channels per group, then g(g−1) directed global channels.
type Dragonfly struct {
	t          int // balance parameter: p = h = t, a = 2t, g = 2t²+1
	p, a, h, g int
	terminals  int
	localBase  int
	globalBase int
	routeDist  []float64
	avgDist    float64
}

// newDragonfly sizes the smallest balanced Dragonfly with at least count
// terminals (t=1 → 6, t=2 → 72, t=3 → 342, …). The route-length
// distribution is counted in closed form, but CheckStructure walks all T²
// terminal pairs and the model all C² cluster pairs, so count is bounded
// like a fat tree's nodes, by maxTreeNodes: the largest accepted instance
// has 1,056 terminals.
func newDragonfly(count int) (*Dragonfly, error) {
	if count < 1 {
		return nil, fmt.Errorf("topo: dragonfly needs a positive terminal count (got %d)", count)
	}
	if count > maxTreeNodes {
		return nil, fmt.Errorf("%w: a dragonfly for %d terminals, more than %d", errBadShape, count, maxTreeNodes)
	}
	t := 1
	for ; ; t++ {
		a := 2 * t
		g := a*t + 1
		if g*a*t >= count {
			break
		}
	}
	d := &Dragonfly{t: t, p: t, a: 2 * t, h: t, g: 2*t*t + 1}
	d.terminals = d.g * d.a * d.p
	d.localBase = 2 * d.terminals
	d.globalBase = d.localBase + d.g*d.a*(d.a-1)
	d.buildRouteDist()
	return d, nil
}

func (d *Dragonfly) router(term int) int { return term / d.p }
func (d *Dragonfly) group(r int) int     { return r / d.a }

// localChannel is the directed channel from router rA to router rB within
// group gi (router indices within the group, rA ≠ rB).
func (d *Dragonfly) localChannel(gi, rA, rB int) int32 {
	off := rB
	if rB > rA {
		off--
	}
	return int32(d.localBase + gi*d.a*(d.a-1) + rA*(d.a-1) + off)
}

// globalChannel is the directed channel from group gi to group gj.
func (d *Dragonfly) globalChannel(gi, gj int) int32 {
	off := gj
	if gj > gi {
		off--
	}
	return int32(d.globalBase + gi*(d.g-1) + off)
}

// gatewayRouter is the within-group index of the router in gi that owns the
// global link towards gj: the g−1 = a·h outgoing links are dealt h per
// router in wrap order gi+1, gi+2, ….
func (d *Dragonfly) gatewayRouter(gi, gj int) int {
	o := gj - gi - 1
	if o < 0 {
		o += d.g
	}
	return o / d.h
}

func (d *Dragonfly) Kind() string  { return KindDragonfly }
func (d *Dragonfly) Nodes() int    { return d.terminals }
func (d *Dragonfly) Switches() int { return d.g * d.a }
func (d *Dragonfly) Channels() int {
	return 2*d.terminals + d.g*d.a*(d.a-1) + d.g*(d.g-1)
}
func (d *Dragonfly) MaxRouteLen() int { return 5 }

// RouteLen is the channel count of the minimal route: 2 within one router,
// 3 within one group, and 3–5 across groups depending on whether source
// and destination routers are the gateway routers of the global link.
func (d *Dragonfly) RouteLen(src, dst int) int {
	if src == dst {
		return 0
	}
	rs, rd := d.router(src), d.router(dst)
	if rs == rd {
		return 2
	}
	gs, gd := d.group(rs), d.group(rd)
	if gs == gd {
		return 3
	}
	n := 3
	if rs%d.a != d.gatewayRouter(gs, gd) {
		n++
	}
	if rd%d.a != d.gatewayRouter(gd, gs) {
		n++
	}
	return n
}

func (d *Dragonfly) AppendRoute(path []int32, base int32, src, dst int, sel uint64) []int32 {
	path = append(path, base+int32(src))
	rs, rd := d.router(src), d.router(dst)
	if rs != rd {
		gs, gd := d.group(rs), d.group(rd)
		if gs == gd {
			path = append(path, base+d.localChannel(gs, rs%d.a, rd%d.a))
		} else {
			exit := d.gatewayRouter(gs, gd)
			if rs%d.a != exit {
				path = append(path, base+d.localChannel(gs, rs%d.a, exit))
			}
			path = append(path, base+d.globalChannel(gs, gd))
			entry := d.gatewayRouter(gd, gs)
			if entry != rd%d.a {
				path = append(path, base+d.localChannel(gd, entry, rd%d.a))
			}
		}
	}
	return append(path, base+int32(d.terminals+dst))
}

// buildRouteDist counts the minimal-route lengths of all ordered terminal
// pairs in closed form, following RouteLen's cases: p(p−1) pairs per router
// at length 2 and a(a−1)p² per group at length 3; across each ordered group
// pair, p² at 3 (both routers own the global link), 2p²(a−1) at 4 (one
// does) and p²(a−1)² at 5 (neither does). The counts are exact integers, so
// the distribution is the enumeration's, bit for bit.
func (d *Dragonfly) buildRouteDist() {
	p, a, g := int64(d.p), int64(d.a), int64(d.g)
	groupPairs := g * (g - 1) * p * p
	counts := []int64{
		2: g * a * p * (p - 1),
		3: g*a*(a-1)*p*p + groupPairs,
		4: groupPairs * 2 * (a - 1),
		5: groupPairs * (a - 1) * (a - 1),
	}
	d.routeDist = make([]float64, len(counts))
	denom := float64(d.terminals) * float64(d.terminals-1)
	for l, c := range counts {
		d.routeDist[l] = float64(c) / denom
		d.avgDist += float64(l) * d.routeDist[l]
	}
}

func (d *Dragonfly) RouteDist() []float64 { return d.routeDist }
func (d *Dragonfly) AvgDistance() float64 { return d.avgDist }
func (d *Dragonfly) EtaChannels() float64 { return float64(d.Channels()) / 2 }

// CheckStructure verifies the arrangement by enumeration: the balance
// identities hold, every group pair is joined by exactly one global link
// whose two gateway routers stay within their groups, channel ids are in
// range and distinct per class, and every route is a connected walk from
// source to destination of the advertised length.
func (d *Dragonfly) CheckStructure() error {
	if d.a != 2*d.h || d.p != d.h || d.g != d.a*d.h+1 {
		return fmt.Errorf("topo: dragonfly balance broken (p=%d a=%d h=%d g=%d)", d.p, d.a, d.h, d.g)
	}
	for gi := 0; gi < d.g; gi++ {
		perRouter := make([]int, d.a)
		for gj := 0; gj < d.g; gj++ {
			if gj == gi {
				continue
			}
			r := d.gatewayRouter(gi, gj)
			if r < 0 || r >= d.a {
				return fmt.Errorf("topo: dragonfly gateway %d→%d out of group (router %d)", gi, gj, r)
			}
			perRouter[r]++
			c := int(d.globalChannel(gi, gj))
			if c < d.globalBase || c >= d.Channels() {
				return fmt.Errorf("topo: dragonfly global channel %d→%d out of range (%d)", gi, gj, c)
			}
		}
		for r, n := range perRouter {
			if n != d.h {
				return fmt.Errorf("topo: dragonfly router %d/%d owns %d global links, want %d", gi, r, n, d.h)
			}
		}
	}
	// Route validity: walk every pair and re-derive each hop's endpoints
	// from the channel id alone.
	for s := 0; s < d.terminals; s++ {
		for t := 0; t < d.terminals; t++ {
			if s == t {
				continue
			}
			path := d.AppendRoute(nil, 0, s, t, 0)
			if len(path) != d.RouteLen(s, t) {
				return fmt.Errorf("topo: dragonfly route %d→%d has %d channels, RouteLen says %d", s, t, len(path), d.RouteLen(s, t))
			}
			at := d.router(s)
			if int(path[0]) != s {
				return fmt.Errorf("topo: dragonfly route %d→%d starts on channel %d", s, t, path[0])
			}
			for _, c := range path[1 : len(path)-1] {
				from, to, err := d.decodeSwitchChannel(int(c))
				if err != nil {
					return fmt.Errorf("topo: dragonfly route %d→%d: %v", s, t, err)
				}
				if from != at {
					return fmt.Errorf("topo: dragonfly route %d→%d leaves router %d on channel from %d", s, t, at, from)
				}
				at = to
			}
			if int(path[len(path)-1]) != d.terminals+t {
				return fmt.Errorf("topo: dragonfly route %d→%d ends on channel %d", s, t, path[len(path)-1])
			}
			if at != d.router(t) {
				return fmt.Errorf("topo: dragonfly route %d→%d ends at router %d", s, t, at)
			}
		}
	}
	return nil
}

// decodeSwitchChannel inverts localChannel/globalChannel to the global
// router indices of the channel's endpoints.
func (d *Dragonfly) decodeSwitchChannel(c int) (from, to int, err error) {
	switch {
	case c >= d.globalBase && c < d.Channels():
		off := c - d.globalBase
		gi := off / (d.g - 1)
		gj := off % (d.g - 1)
		if gj >= gi {
			gj++
		}
		return gi*d.a + d.gatewayRouter(gi, gj), gj*d.a + d.gatewayRouter(gj, gi), nil
	case c >= d.localBase && c < d.globalBase:
		off := c - d.localBase
		gi := off / (d.a * (d.a - 1))
		off %= d.a * (d.a - 1)
		rA := off / (d.a - 1)
		rB := off % (d.a - 1)
		if rB >= rA {
			rB++
		}
		return gi*d.a + rA, gi*d.a + rB, nil
	default:
		return 0, 0, fmt.Errorf("channel %d is not a switch channel", c)
	}
}

func (d *Dragonfly) String() string {
	return fmt.Sprintf("dragonfly (p=h=%d, a=%d, g=%d, T=%d, Nsw=%d)", d.t, d.a, d.g, d.terminals, d.g*d.a)
}
