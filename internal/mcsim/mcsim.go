// Package mcsim is the whole-system simulator of the heterogeneous
// multi-cluster architecture: per-cluster ICN1 and ECN1 fat trees, the
// global ICN2 tree, and the concentrator/dispatcher devices that bridge
// them, all driven by Poisson sources and measured exactly like the paper's
// validation runs (§4).
//
// # Physical realization
//
// Each cluster i instantiates two independent m-port n_i-trees: ICN1 carries
// intra-cluster messages node→node; ECN1 carries the inter-cluster legs. The
// cluster's concentrator owns one dedicated up-link on every ECN1 root
// switch and occupies one "node" position of the ICN2 tree (see DESIGN.md §3
// for why this realization matches the paper's model accounting). An
// inter-cluster message travels one *merged* wormhole journey — the paper is
// explicit that "since the flow control mechanism is wormhole, the latency
// of these networks should be calculated as a merge one" (§3.3) — over the
// concatenation
//
//	ECN1_i: node → leaf → … → root → concentrator_i   (n_i+1 links)
//	ICN2  : concentrator_i → … NCA … → concentrator_v (2h links)
//	ECN1_v: concentrator_v → root → … → leaf → node   (n_v+1 links)
//
// Concentrators are cut-through devices ("simple bi-directional buffers" in
// the paper's words): the worm's header flows straight through while the
// body pipelines behind it. Concentrator queueing arises on the
// concentrator's links — each message holds the concentrator↔ICN2 injection
// link for M flit times, which is what the paper models as an M/G/1 queue
// with deterministic service M·t_cs (Eq. 33).
//
// # Measurement methodology
//
// Following §4: messages are counted in generation order; the first Warmup
// messages are delivered but not measured, the next Measure messages are
// measured (latency = generation to tail-flit delivery at the destination
// node), and Drain further messages are generated to keep the system loaded
// while the measured ones finish. The run ends as soon as every measured
// message has been delivered.
package mcsim

import (
	"errors"
	"fmt"
	"math"

	"mcnet/internal/des"
	"mcnet/internal/freelist"
	"mcnet/internal/rng"
	"mcnet/internal/routing"
	"mcnet/internal/stats"
	"mcnet/internal/system"
	"mcnet/internal/topo"
	"mcnet/internal/traffic"
	"mcnet/internal/units"
	"mcnet/internal/workload"
	"mcnet/internal/wormhole"
)

// Config parameterizes one simulation run.
type Config struct {
	// Org describes the multi-cluster system (e.g. system.Table1Org1()).
	Org system.Organization
	// Par supplies the technology parameters and message geometry.
	Par units.Params
	// LambdaG is λ_g: the per-node Poisson message generation rate. Nodes in
	// clusters with a RateFactor generate at LambdaG·RateFactor.
	LambdaG float64
	// Warmup, Measure and Drain are the message counts of the three
	// measurement phases (the paper uses 10 000 / 100 000 / 10 000).
	Warmup, Measure, Drain int
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed uint64
	// Pattern optionally overrides the destination pattern (default:
	// uniform, the paper's assumption 2). The factory receives the
	// materialized system.
	Pattern func(*system.System) traffic.Pattern
	// RoutingMode selects the ascent discipline (default: balanced).
	RoutingMode routing.Mode
	// MaxEvents bounds the event count as a safety net (0 = 2^40).
	MaxEvents uint64

	// Arrival optionally replaces the Poisson arrival process (paper
	// assumption 1) with another mean-rate-preserving process, e.g.
	// workload.MMPP for bursty on-off sources. Every node gets its own
	// process instance driven by its own RNG stream.
	Arrival workload.Arrival
	// Sizes optionally replaces the fixed message length (paper assumption 3)
	// with a per-message distribution; Par.MessageFlits serves as the base M
	// passed to the distribution.
	Sizes workload.SizeDist
	// Record, if non-nil, receives every generated message in generation
	// order — the stream a workload.Writer serializes as a trace.
	Record func(workload.Event)
	// Replay, if non-nil, re-launches this recorded generation stream instead
	// of sampling one: times, endpoints, lengths and routing selectors come
	// from the events, no generation randomness is consumed, and a trace
	// recorded from an identical organization replays bit-exactly. Events
	// must be time-ordered with valid endpoints (see workload.Read).
	Replay []workload.Event
	// OnDeliver, if non-nil, observes every delivered message (its generation
	// index, whether it fell in the measurement window, and its latency).
	OnDeliver func(id uint64, measured bool, latency float64)
	// Telemetry, if non-nil, enables the opt-in contention instrument layer
	// (per-tier utilization, blocking and occupancy histograms, latency
	// decomposition, time series, and the live (events, simulated time)
	// progress of Telemetry.Progress — see telemetry.go). It is
	// observation-only: a run produces a bit-identical Result with or
	// without it, and off costs nothing.
	Telemetry *TelemetryConfig
}

// Result summarizes one run.
type Result struct {
	// Latency aggregates generation→delivery times of measured messages.
	Latency stats.Summary
	// IntraLatency and InterLatency split the measured messages by whether
	// they left their source cluster.
	IntraLatency stats.Summary
	InterLatency stats.Summary
	// SourceWait aggregates the injection-queue waits of measured messages
	// (the quantity the model's Eqs. 23/30 approximate).
	SourceWait stats.Summary
	// PerCluster aggregates measured latency by source cluster.
	PerCluster []stats.Summary
	// Generated counts all generated messages; DeliveredMeasured counts the
	// measured messages that reached their destination (== Measure unless
	// the run was truncated).
	Generated         int
	DeliveredMeasured int
	// ObservedPOut is the empirical fraction of measured messages that left
	// their source cluster (compare system.POut / Eq. 13).
	ObservedPOut float64
	// SimTime is the simulated time at which the run stopped; Events is the
	// number of events executed.
	SimTime float64
	Events  uint64
	// Truncated reports that the event budget was exhausted before every
	// measured message arrived (an extreme-saturation symptom).
	Truncated bool
	// Stalled reports that the event list emptied with worms still in the
	// network: each waits in a channel queue behind a channel another one
	// holds, a routing deadlock (wormhole switching without virtual
	// channels admits it on cyclic topologies such as the dragonfly). The
	// measurements then cover only the messages delivered before it.
	Stalled bool
}

// message tracks one end-to-end message across its segments. Messages are
// pooled in slabs across the run: each pooled message owns a maxHops-sized
// slice of the slab's shared path and acquisition arenas, and delivery
// dispatches through the worm's Owner/Tag (the Sim and the message's pool
// index) instead of a per-message closure — so growing the pool under a
// burst costs O(1) allocations per slab, not per message.
type message struct {
	id       uint64
	src, dst int // global node ids
	srcCl    int
	dstCl    int
	genTime  float64
	measured bool
	flits    int    // message length M of this message
	sel1     uint64 // ECN1 ascent root selector
	sel2     uint64 // ICN2 route selector (random mode only)
	sel3     uint64 // ECN1 descent root selector
	worm     wormhole.Worm
	pathBuf  []int32
}

// clusterNets holds one cluster's networks and their offsets in the global
// channel table.
type clusterNets struct {
	icn1Base     int32
	ecn1Base     int32
	rootUpBase   int32 // ECN1 root → concentrator links, indexed by root
	rootDownBase int32 // concentrator → ECN1 root links, indexed by root
	// ecn1 is the cluster's ECN1 access network, the system's shared
	// balanced m-port n_i-tree. Its concentrator legs pick the root from the
	// message's selector under every routing mode, so one instance serves
	// every run; launch calls them on the concrete type.
	ecn1 *topo.FatTree
	// icn1 is the cluster's intra network, resolved from the spec's
	// topology under the run's routing mode through the topo cache.
	icn1 topo.Topology
}

// Sim is a fully built simulation instance. Create with New, run with Run,
// and hand its arrays to the next New with Release.
type Sim struct {
	cfg   Config
	sys   *system.System
	sched des.Scheduler
	hid   des.HandlerID
	net   *wormhole.Network

	clusters []clusterNets
	icn2Base int32
	// icn2 is the global interconnect, resolved from the organization's
	// ICN2 topology under the run's routing mode.
	icn2 topo.Topology

	pattern traffic.Pattern
	// nodeRNG is one contiguous arena of per-node random streams.
	nodeRNG []rng.Source
	// rates[n] is node n's Poisson generation rate; nodeCl/nodeLocal are the
	// precomputed ClusterOf maps (the per-message hot path does four such
	// lookups).
	rates     []float64
	nodeCl    []int32
	nodeLocal []int32
	// arr holds per-node arrival processes for non-Poisson workloads; nil
	// Procs selects the allocation-free default (exponential inter-arrivals
	// at rates[n], bit-identical with pre-workload simulator versions).
	arr workload.Fleet
	// sizes draws per-message lengths; nil means fixed Par.MessageFlits.
	sizes workload.SizeDist
	// replay, when non-nil, is the recorded generation stream being re-run.
	replay   []workload.Event
	genCount int
	genCap   int

	latency      stats.Running
	intraLatency stats.Running
	interLatency stats.Running
	sourceWait   stats.Running
	perCluster   []stats.Running
	interCount   int64
	measuredDone int
	// slabs is the message pool: a worm's Tag is its message's pool index,
	// so delivery finds the message without a closure. freeMsgs holds the
	// idle messages; maxHops bounds any route in this organization and sizes
	// the per-message path/acq arena slices.
	slabs    []msgSlab
	freeMsgs []*message
	maxHops  int
	// tele is the opt-in telemetry collector (nil when Config.Telemetry is
	// nil — the zero-overhead-off invariant hangs on this nil check).
	tele *Telemetry
}

// CheckPhases reports whether a run can have the given phase message
// counts: measure positive, warmup and drain not negative, and at most
// math.MaxInt32 messages in all. The network counts a channel's grants in
// 32 bits, and a message is granted each channel at most once, so that is
// the most messages a run generates (a replay stream has the same bound).
// New applies it; callers that accept phase counts apply it up front.
func CheckPhases(warmup, measure, drain int) error {
	if measure <= 0 {
		return fmt.Errorf("measure phase must be positive, got %d", measure)
	}
	if warmup < 0 || drain < 0 {
		return fmt.Errorf("negative warmup/drain (%d, %d)", warmup, drain)
	}
	if warmup > math.MaxInt32 || measure > math.MaxInt32 || drain > math.MaxInt32 ||
		warmup+measure+drain > math.MaxInt32 {
		return fmt.Errorf("phase counts (%d,%d,%d) sum past %d messages", warmup, measure, drain, math.MaxInt32)
	}
	return nil
}

// New builds a simulation instance.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Par.Validate(); err != nil {
		return nil, err
	}
	if cfg.LambdaG <= 0 && cfg.Replay == nil {
		return nil, fmt.Errorf("mcsim: LambdaG %v must be positive", cfg.LambdaG)
	}
	if err := CheckPhases(cfg.Warmup, cfg.Measure, cfg.Drain); err != nil {
		return nil, fmt.Errorf("mcsim: %v", err)
	}
	sys, err := system.New(cfg.Org)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, sys: sys}

	// Lay out the global channel table: per-cluster ICN1, ECN1 and
	// concentrator links, then ICN2. Node↔switch links use their network's
	// t_cn, switch↔switch links its t_cs — both resolved per tier, so every
	// network carries its own link technology. Root↔concentrator bridges and
	// the concentrator↔ICN2 links (ICN2's "node" channels — its nodes are
	// devices) use the concentrator class's t_cs; with no overrides every
	// channel gets the same t_cn/t_cs as the single-technology layout. The
	// first pass resolves the networks and places their ranges, so the flit
	// table is drawn at its final size and filled in place.
	var nch int32
	place := func(n int) int32 {
		base := nch
		nch += int32(n)
		return base
	}
	s.clusters = make([]clusterNets, sys.C())
	for i := range sys.Clusters {
		cl := &sys.Clusters[i]
		cn := &s.clusters[i]
		cn.icn1, err = topo.New(cl.Topo, sys.Ports, cl.Levels, cfg.RoutingMode)
		if err != nil {
			return nil, fmt.Errorf("mcsim: cluster %d ICN1: %v", i, err)
		}
		cn.ecn1 = cl.ECN1Net
		cn.icn1Base = place(cn.icn1.Channels())
		cn.ecn1Base = place(cn.ecn1.Channels())
		cn.rootUpBase = place(cn.ecn1.Roots())
		cn.rootDownBase = place(cn.ecn1.Roots())
	}
	s.icn2, err = topo.NewGlobal(cfg.Org.ICN2Topo, sys.Ports, sys.C(), cfg.RoutingMode)
	if err != nil {
		return nil, fmt.Errorf("mcsim: ICN2: %v", err)
	}
	s.icn2Base = place(s.icn2.Channels())

	lm := cfg.Par.FlitBytes
	concTcs := cfg.Par.ConcClass().Tcs(lm)
	icn2Tcs := cfg.Par.ICN2Class().Tcs(lm)
	flits := flitTables.Get(int(nch))
	// A topology's first 2·Nodes() channels are its endpoint channels.
	fillTree := func(t topo.Topology, base int32, nodeTime, swTime float64) {
		net := flits[base : int(base)+t.Channels()]
		fill(net[:2*t.Nodes()], nodeTime)
		fill(net[2*t.Nodes():], swTime)
	}
	for i := range sys.Clusters {
		cl := &sys.Clusters[i]
		cn := &s.clusters[i]
		icn1 := cfg.Par.ICN1Class()
		if cl.ICN1 != nil {
			icn1 = *cl.ICN1
		}
		ecn1 := cfg.Par.ECN1Class()
		if cl.ECN1 != nil {
			ecn1 = *cl.ECN1
		}
		fillTree(cn.icn1, cn.icn1Base, icn1.Tcn(lm), icn1.Tcs(lm))
		fillTree(cn.ecn1, cn.ecn1Base, ecn1.Tcn(lm), ecn1.Tcs(lm))
		for c := cn.rootUpBase; c < cn.rootDownBase+int32(cn.ecn1.Roots()); c++ {
			flits[c] = concTcs
		}
	}
	fillTree(s.icn2, s.icn2Base, concTcs, icn2Tcs)
	s.net = wormhole.New(&s.sched, flits)
	flitTables.Put(flits) // the network copied it into its channel table
	s.hid = s.sched.Register(s)

	if cfg.Pattern != nil {
		s.pattern = cfg.Pattern(sys)
	} else {
		s.pattern = traffic.Uniform{N: sys.TotalNodes()}
	}
	nodes := sys.TotalNodes()
	s.nodeRNG = nodeRNGs.Get(nodes)
	s.rates = nodeRates.Get(nodes)
	s.nodeCl = nodeClusters.Get(nodes)
	s.nodeLocal = nodeLocals.Get(nodes)
	for n := range s.nodeRNG {
		s.nodeRNG[n].ReseedStream(cfg.Seed, uint64(n))
	}
	for ci := range sys.Clusters {
		cl := &sys.Clusters[ci]
		lo, hi := cl.NodeBase, cl.NodeBase+cl.Nodes
		fill(s.nodeCl[lo:hi], int32(ci))
		fill(s.rates[lo:hi], cfg.LambdaG*cl.RateFactor)
		for local := range s.nodeLocal[lo:hi] {
			s.nodeLocal[lo+local] = int32(local)
		}
	}
	s.slabs = msgSlabs.Get(0)
	s.perCluster = make([]stats.Running, sys.C())
	// Bound the longest possible route: an inter-cluster journey climbs the
	// source ECN1 (Levels channels), crosses a root↔concentrator bridge, the
	// full ICN2, the destination bridge, and descends the destination ECN1.
	// Intra routes are bounded by their topology's MaxRouteLen (2·Levels for
	// the default fat tree, always shorter than the inter bound there, but
	// e.g. a sparse jellyfish can exceed it).
	maxLv, maxIntra := 0, 0
	for i := range sys.Clusters {
		if lv := sys.Clusters[i].Levels; lv > maxLv {
			maxLv = lv
		}
		if n := s.clusters[i].icn1.MaxRouteLen(); n > maxIntra {
			maxIntra = n
		}
	}
	s.maxHops = 2*maxLv + s.icn2.MaxRouteLen() + 2
	if maxIntra > s.maxHops {
		s.maxHops = maxIntra
	}
	s.genCap = cfg.Warmup + cfg.Measure + cfg.Drain
	if err := s.setupWorkload(); err != nil {
		s.Release()
		return nil, err
	}
	if cfg.Telemetry != nil {
		s.setupTelemetry()
	}
	return s, nil
}

// fill sets every element of xs to v.
func fill[E any](xs []E, v E) {
	for i := range xs {
		xs[i] = v
	}
}

// setupWorkload materializes the configured arrival processes, size
// distribution and replay stream. The defaults (Poisson, fixed M, no replay)
// leave every field nil, keeping the original allocation-free hot path.
func (s *Sim) setupWorkload() error {
	cfg := &s.cfg
	if cfg.Replay != nil {
		if len(cfg.Replay) == 0 {
			return fmt.Errorf("mcsim: empty replay stream")
		}
		if cfg.Warmup+cfg.Measure > len(cfg.Replay) {
			return fmt.Errorf("mcsim: replay stream has %d events, fewer than warmup+measure = %d",
				len(cfg.Replay), cfg.Warmup+cfg.Measure)
		}
		if len(cfg.Replay) > math.MaxInt32 {
			return fmt.Errorf("mcsim: replay stream too long (%d events)", len(cfg.Replay))
		}
		n := s.sys.TotalNodes()
		prev := 0.0
		for i := range cfg.Replay {
			ev := &cfg.Replay[i]
			// The inclusive comparison rejects NaN times (which would slip
			// through ordering checks and panic inside the scheduler), and
			// +Inf is an event that never fires.
			if !(ev.T >= prev) || math.IsInf(ev.T, 1) {
				return fmt.Errorf("mcsim: replay event %d: time %v out of order or not finite", i, ev.T)
			}
			prev = ev.T
			if int(ev.Src) >= n || ev.Src < 0 || int(ev.Dst) >= n || ev.Dst < 0 || ev.Src == ev.Dst {
				return fmt.Errorf("mcsim: replay event %d: bad endpoints %d→%d for %d nodes", i, ev.Src, ev.Dst, n)
			}
			if ev.Flits <= 0 {
				return fmt.Errorf("mcsim: replay event %d: non-positive length %d", i, ev.Flits)
			}
		}
		s.replay = cfg.Replay
		if len(s.replay) < s.genCap {
			s.genCap = len(s.replay)
		}
		return nil
	}
	if cfg.Arrival != nil {
		if _, isDefault := cfg.Arrival.(workload.Poisson); !isDefault {
			s.arr = workload.NewFleet(cfg.Arrival, s.rates)
		}
	}
	if cfg.Sizes != nil {
		if _, isDefault := cfg.Sizes.(workload.Fixed); !isDefault {
			s.sizes = cfg.Sizes
		}
	}
	return nil
}

// nextArrival draws node's next inter-arrival time from its process.
func (s *Sim) nextArrival(node int, r *rng.Source) float64 {
	if s.arr.Procs != nil {
		return s.arr.Procs[node].Next(r)
	}
	return r.Exp(s.rates[node])
}

// System returns the materialized system (for tests and tools).
func (s *Sim) System() *system.System { return s.sys }

// Network exposes the wormhole substrate (for tests and tools).
func (s *Sim) Network() *wormhole.Network { return s.net }

// hash64 is SplitMix64's output function, used to derive deterministic
// balanced selectors from message coordinates.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ErrTruncated reports a run that hit its event budget before completing the
// measurement phase.
var ErrTruncated = errors.New("mcsim: event budget exhausted before measurement completed")

// Event discriminators of the Sim's des.Handler. Generation shares the
// scheduler with the wormhole engine.
const (
	// opGenerate: node arg generates its next message.
	opGenerate int32 = iota
	// opReplay: re-launch recorded event arg of the replay stream.
	opReplay
)

// HandleEvent implements des.Handler.
func (s *Sim) HandleEvent(op, arg int32) {
	if op == opReplay {
		s.replayGenerate(int(arg))
		return
	}
	s.generate(int(arg))
}

// Run executes the simulation to completion and returns the measurements.
// The returned error is non-nil only for truncated runs; the Result is
// meaningful (partial) in that case too.
func (s *Sim) Run() (Result, error) {
	// Prime the generation stream: every node's first arrival, or the first
	// recorded event when replaying (each event then chains the next).
	if s.replay != nil {
		s.sched.Call(s.replay[0].T, s.hid, opReplay, 0)
	} else {
		for n := 0; n < s.sys.TotalNodes(); n++ {
			s.sched.Call(s.nextArrival(n, &s.nodeRNG[n]), s.hid, opGenerate, int32(n))
		}
	}
	maxEvents := s.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 1 << 40
	}
	// With telemetry off the sample threshold is the uint64 maximum, so the
	// hot loop pays exactly one always-false compare per event.
	nextSample := ^uint64(0)
	if s.tele != nil {
		nextSample = s.tele.stride
	}
	truncated, stalled := false, false
	for s.measuredDone < s.cfg.Measure {
		if s.sched.Executed() >= maxEvents {
			truncated = true
			break
		}
		if !s.sched.Step() {
			// Event list exhausted before the measurement phase finished:
			// generation stops on its own, so the worms still in flight
			// block each other and nothing can move again.
			stalled = s.net.InFlight() > 0
			break
		}
		if ev := s.sched.Executed(); ev >= nextSample {
			s.tele.sample(ev)
			// Re-read the stride: a series compaction doubles it.
			nextSample = ev + s.tele.stride
		}
	}
	if s.tele != nil {
		// A final sample pins the report to the run's end state.
		s.tele.sample(s.sched.Executed())
	}
	res := Result{
		Latency:           s.latency.Summarize(),
		IntraLatency:      s.intraLatency.Summarize(),
		InterLatency:      s.interLatency.Summarize(),
		SourceWait:        s.sourceWait.Summarize(),
		Generated:         s.genCount,
		DeliveredMeasured: s.measuredDone,
		SimTime:           s.sched.Now(),
		Events:            s.sched.Executed(),
		Truncated:         truncated,
		Stalled:           stalled,
	}
	res.PerCluster = make([]stats.Summary, len(s.perCluster))
	for i := range s.perCluster {
		res.PerCluster[i] = s.perCluster[i].Summarize()
	}
	if n := s.latency.Count(); n > 0 {
		res.ObservedPOut = float64(s.interCount) / float64(n)
	} else {
		res.ObservedPOut = math.NaN()
	}
	if truncated {
		return res, ErrTruncated
	}
	return res, nil
}

// generate creates one message at `node` and schedules the node's next
// generation while the global budget lasts.
func (s *Sim) generate(node int) {
	if s.genCount >= s.genCap {
		return
	}
	r := &s.nodeRNG[node]
	idx := s.genCount
	s.genCount++

	m := s.getMessage()
	m.id = uint64(idx)
	m.src = node
	m.dst = s.pattern.Dest(node, r)
	m.srcCl = int(s.nodeCl[m.src])
	m.dstCl = int(s.nodeCl[m.dst])
	m.genTime = s.sched.Now()
	m.measured = idx >= s.cfg.Warmup && idx < s.cfg.Warmup+s.cfg.Measure
	// RNG consumption order is frozen (destination, then length, then
	// selectors): golden fixtures depend on it.
	m.flits = s.cfg.Par.MessageFlits
	if s.sizes != nil {
		m.flits = s.sizes.Flits(s.cfg.Par.MessageFlits, r)
	}
	if s.cfg.RoutingMode == routing.RandomUp {
		m.sel1, m.sel2, m.sel3 = r.Uint64(), r.Uint64(), r.Uint64()
	} else {
		m.sel1 = hash64(uint64(m.src)<<32 ^ uint64(m.dst))
		m.sel2 = 0 // balanced ICN2 routing uses destination digits
		m.sel3 = hash64(uint64(m.dst))
	}
	if s.cfg.Record != nil {
		s.cfg.Record(workload.Event{
			T: m.genTime, Src: int32(m.src), Dst: int32(m.dst), Flits: int32(m.flits),
			Sel1: m.sel1, Sel2: m.sel2, Sel3: m.sel3,
		})
	}
	s.launch(m)

	if s.genCount < s.genCap {
		s.sched.CallAfter(s.nextArrival(node, r), s.hid, opGenerate, int32(node))
	}
}

// replayGenerate re-launches recorded event i: the message's birth time is
// the event's (the scheduler invoked us at exactly that time), and its
// endpoints, length and selectors are taken verbatim, so no generation
// randomness is consumed and the recorded run is reproduced bit-exactly.
func (s *Sim) replayGenerate(i int) {
	if s.genCount >= s.genCap {
		return
	}
	ev := &s.replay[i]
	idx := s.genCount
	s.genCount++

	m := s.getMessage()
	m.id = uint64(idx)
	m.src = int(ev.Src)
	m.dst = int(ev.Dst)
	m.srcCl = int(s.nodeCl[m.src])
	m.dstCl = int(s.nodeCl[m.dst])
	m.genTime = s.sched.Now()
	m.measured = idx >= s.cfg.Warmup && idx < s.cfg.Warmup+s.cfg.Measure
	m.flits = int(ev.Flits)
	m.sel1, m.sel2, m.sel3 = ev.Sel1, ev.Sel2, ev.Sel3
	if s.cfg.Record != nil {
		s.cfg.Record(*ev)
	}
	s.launch(m)

	if i+1 < len(s.replay) && s.genCount < s.genCap {
		s.sched.Call(s.replay[i+1].T, s.hid, opReplay, int32(i+1))
	}
}

// launch injects a message as a single wormhole worm. The route is assembled
// into the message's reused path buffer from the precomputed route tables —
// no allocation once the free list is warm.
func (s *Sim) launch(m *message) {
	path := m.pathBuf[:0]
	if m.srcCl == m.dstCl {
		// Intra-cluster: a single journey through ICN1 (up*/down* on the
		// default fat tree, table-routed shortest path on jellyfish).
		cn := &s.clusters[m.srcCl]
		path = cn.icn1.AppendRoute(path, cn.icn1Base,
			int(s.nodeLocal[m.src]), int(s.nodeLocal[m.dst]), m.sel2)
	} else {
		// Inter-cluster: one merged journey ECN1_i → ICN2 → ECN1_v with
		// cut-through concentrators (paper §3.3).
		src := &s.clusters[m.srcCl]
		dst := &s.clusters[m.dstCl]

		var srcRootY int
		path, srcRootY = src.ecn1.AppendUpToRoot(path, src.ecn1Base, int(s.nodeLocal[m.src]), m.sel1)
		path = append(path, src.rootUpBase+int32(srcRootY))
		path = s.icn2.AppendRoute(path, s.icn2Base, m.srcCl, m.dstCl, m.sel2)
		dstRootY := dst.ecn1.RootIndex(m.sel3)
		path = append(path, dst.rootDownBase+int32(dstRootY))
		path = dst.ecn1.AppendDownFromRoot(path, dst.ecn1Base, dstRootY, int(s.nodeLocal[m.dst]))
	}
	m.pathBuf = path
	m.worm.Reset(m.id, path, m.flits, nil)
	s.net.Inject(&m.worm)
}

// WormDelivered implements wormhole.Deliverer: the worm's Tag is the
// message's pool slot, so delivery needs no per-message closure.
func (s *Sim) WormDelivered(w *wormhole.Worm) {
	s.deliver(&s.slabs[w.Tag/poolSlab].msgs[w.Tag%poolSlab])
}

// deliver records the end-to-end latency of a completed message.
func (s *Sim) deliver(m *message) {
	lat := s.sched.Now() - m.genTime
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(m.id, m.measured, lat)
	}
	if m.measured {
		if s.tele != nil {
			s.tele.observeDelivery(m, lat)
		}
		s.latency.Add(lat)
		s.sourceWait.Add(m.worm.SourceWait())
		s.perCluster[m.srcCl].Add(lat)
		if m.srcCl == m.dstCl {
			s.intraLatency.Add(lat)
		} else {
			s.interLatency.Add(lat)
			s.interCount++
		}
		s.measuredDone++
	}
	s.putMessage(m)
}

// getMessage and putMessage recycle message structs (and their path and worm
// acquisition buffers) across the run, so the steady-state per-message
// allocation count is zero. When the free list runs dry — a burst pushing the
// in-flight count past the pool size — growPool adds a whole slab at once.
func (s *Sim) getMessage() *message {
	if n := len(s.freeMsgs); n == 0 {
		s.growPool()
	}
	n := len(s.freeMsgs)
	m := s.freeMsgs[n-1]
	s.freeMsgs = s.freeMsgs[:n-1]
	return m
}

// poolSlab is the number of messages one growPool step adds.
const poolSlab = 64

// msgSlab is one growPool step: poolSlab messages and the path and
// acquisition arenas their buffers are carved from.
type msgSlab struct {
	msgs  []message
	paths []int32
	acqs  []float64
}

// growPool adds poolSlab pooled messages backed by the three arrays of one
// slab, carved into per-message maxHops-capacity slices. The slab is one an
// earlier run left in the capacity of s.slabs when there is one, with new
// arenas only if its own are too short for this organization's maxHops.
// The three-index carving caps each slice's capacity so an append past
// maxHops (impossible by construction, but cheap to make safe) reallocates
// instead of bleeding into a neighbor's buffer. Worms are wired to the Sim
// via Owner/Tag for closure-free delivery.
func (s *Sim) growPool() {
	k := len(s.slabs)
	var sl msgSlab
	if k < cap(s.slabs) {
		sl = s.slabs[:k+1][k]
	}
	if sl.msgs == nil {
		sl.msgs = make([]message, poolSlab)
	}
	if n := poolSlab * s.maxHops; cap(sl.paths) < n {
		sl.paths = make([]int32, n)
		sl.acqs = make([]float64, n)
	}
	s.slabs = append(s.slabs, sl)
	for i := range sl.msgs {
		m := &sl.msgs[i]
		lo, hi := i*s.maxHops, (i+1)*s.maxHops
		*m = message{pathBuf: sl.paths[lo:lo:hi]}
		m.worm.SetAcqBuf(sl.acqs[lo:lo:hi])
		m.worm.Owner = s
		m.worm.Tag = int32(k*poolSlab + i)
		s.freeMsgs = append(s.freeMsgs, m)
	}
}

func (s *Sim) putMessage(m *message) {
	s.freeMsgs = append(s.freeMsgs, m)
}

// The free lists Release hands a finished run's organization-sized arrays
// to, and New draws from (see package freelist).
var (
	flitTables   freelist.List[float64]
	nodeRNGs     freelist.List[rng.Source]
	nodeRates    freelist.List[float64]
	nodeClusters freelist.List[int32]
	nodeLocals   freelist.List[int32]
	tierTables   freelist.List[uint8]
	// msgSlabs holds whole message pools: a released Sim's slabs, each with
	// its messages cleared, so the pool keeps nothing of the finished run.
	msgSlabs freelist.List[msgSlab]
)

// Release returns the run's organization-sized arrays — the wormhole
// channel table, the scheduler's event lists, the message slabs with their
// path and acquisition arenas, the per-node RNG, rate and cluster arrays,
// the per-node arrival processes and the telemetry tier map — to bounded
// process-wide free lists, for the next New to reuse. Call it once the
// Result and any telemetry snapshot are taken. The Sim must not be used
// afterwards: every field is cleared, so any use panics. A Telemetry
// collector obtained from the Sim stays valid, since Snapshot reads only
// the collector's own state.
func (s *Sim) Release() {
	s.net.Release()
	s.sched.Release()
	s.arr.Release()
	if s.tele != nil {
		tierTables.Put(s.tele.tierOf)
		s.tele.tierOf = nil
	}
	for i := range s.slabs {
		// Each worm points at the Sim, and its Path into the slab.
		clear(s.slabs[i].msgs)
	}
	msgSlabs.Put(s.slabs)
	nodeRNGs.Put(s.nodeRNG)
	nodeRates.Put(s.rates)
	nodeClusters.Put(s.nodeCl)
	nodeLocals.Put(s.nodeLocal)
	*s = Sim{}
}

// Run builds and runs a simulation in one call, and releases it.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := s.Run()
	s.Release()
	return res, err
}
