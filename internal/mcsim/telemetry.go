// Telemetry is the simulator's opt-in contention instrument: per-tier
// utilization, blocking-time and buffer-occupancy histograms, a per-worm
// latency decomposition, and a periodic time series — everything needed to
// see *where* a worm spends its time and *which* tier saturates, the
// question the analytic model answers with its Bottleneck rendering.
//
// It is also the run's only liveness probe: Progress reads the event count
// and simulated time of the latest sample. The design (DESIGN.md §10):
//
//   - Off (Config.Telemetry == nil) costs nothing: no hooks fire, the run
//     loop pays a single always-false compare per event, and the Result is
//     bit-identical.
//   - On, all accounting is derived from state the engine already keeps:
//     channel busy time and queue depths are read by a sampler that runs at
//     an event stride (the run loop's only observer threshold), and the
//     latency decomposition is computed once per measured delivery by
//     walking the worm's existing acquisition-timestamp buffer (the wait
//     for channel i+1 is acq[i+1] − (acq[i] + ft_i); the wait for channel
//     0 is the source-queue time). No per-flit or per-event
//     instrumentation exists.
//   - Steady state allocates nothing: the tier map is a per-channel arena
//     built at setup, histograms are obs.Histogram (atomic, fixed
//     buckets), and the time series lives in a preallocated buffer that
//     compacts in place (drop every other sample, double the stride) when
//     full. TestAllocsMcsimTelemetry pins this.
//   - Snapshot is safe to call from another goroutine while the run is in
//     flight: scalar accumulators are published through atomics by the
//     single simulator goroutine, histograms are concurrent by
//     construction, and the series is guarded by a mutex taken once per
//     sample — never per event. The sampler alone touches wormhole state.
package mcsim

import (
	"math"
	"sync"
	"sync/atomic"

	"mcnet/internal/obs"
)

// TelemetryConfig parameterizes the instrument layer; the zero value gives
// the defaults. Enable by setting Config.Telemetry to a non-nil pointer.
type TelemetryConfig struct {
	// SampleEvery is the sampling stride in dispatched scheduler events
	// (0 = 65536): the time series and Progress both advance once per
	// stride, and the stride doubles with each series compaction, so a
	// long run's progress updates grow sparser. A channel release nobody
	// waits for is not dispatched, so the stride is not a fixed count of
	// messages or hops. Samples cost one walk over the channel table, so
	// strides below ~1000 start to show up in run time.
	SampleEvery uint64
	// SeriesCap bounds the retained time series (0 = 256 samples). When the
	// buffer fills, every other sample is dropped in place and the stride
	// doubles, so a run of any length keeps a bounded, evenly spaced series.
	SeriesCap int
}

// Tier classifies the simulator's directed links into the four components
// the analytical model distinguishes: the intra-cluster networks (ICN1),
// the inter-cluster access networks (ECN1), the concentrator links, and the
// global network (ICN2). Telemetry reports per tier — never per channel —
// so exported metric cardinality is bounded by the architecture, not the
// system size (see obs.LintExposition's cardinality check).
type Tier int

const (
	TierICN1 Tier = iota
	TierECN1
	TierConc
	TierICN2

	numTiers
)

// String returns the tier's wire name, used in JSON reports, CSV columns
// and Prometheus label values.
func (t Tier) String() string {
	switch t {
	case TierICN1:
		return "icn1"
	case TierECN1:
		return "ecn1"
	case TierConc:
		return "conc"
	case TierICN2:
		return "icn2"
	default:
		return "unknown"
	}
}

// TierNames lists the wire names in tier order (the fixed column/label
// vocabulary of every telemetry surface).
func TierNames() [numTiers]string {
	return [numTiers]string{TierICN1.String(), TierECN1.String(), TierConc.String(), TierICN2.String()}
}

// Default histogram bucket layouts. Times are in model time units (the same
// units as Par's flit times and Result.Latency); the log-spaced blocking
// buckets span sub-flit-time waits through deep-saturation queueing.
var (
	// DefBlockingBuckets bound the per-tier header-wait histograms.
	DefBlockingBuckets = []float64{
		0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000,
	}
	// DefOccupancyBuckets bound the per-tier queue-depth histograms
	// (worms waiting per channel at sample instants).
	DefOccupancyBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// atomicFloat publishes a float64 written by one goroutine to concurrent
// readers. The simulator goroutine is the only writer, so Add needs no CAS.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Add(v float64)   { a.Store(a.Load() + v) }

// TelemetrySample is one time-series point: the events/time coordinate and
// the per-tier utilization over the interval since the previous sample.
type TelemetrySample struct {
	Events   uint64            `json:"events"`
	Time     float64           `json:"time"`
	InFlight int               `json:"in_flight"`
	Util     [numTiers]float64 `json:"util"`
}

// Telemetry is the live collector attached to a Sim when Config.Telemetry
// is set. All accumulation happens on the simulator goroutine; Snapshot may
// be called concurrently from any goroutine (e.g. a scrape handler while
// the run is in flight).
type Telemetry struct {
	sim    *Sim
	stride uint64 // current sampling stride (doubles on series compaction)

	// tierOf maps every channel to its tier: one arena, built at setup by
	// Sim.channelTiers and handed back by Sim.Release.
	tierOf   []uint8
	channels [numTiers]int

	// Published by the sampler (atomics: single writer, concurrent readers).
	sampleTime atomicFloat
	events     atomic.Uint64
	busy       [numTiers]atomicFloat
	maxUtil    [numTiers]atomicFloat
	maxQueue   [numTiers]atomic.Int64
	grants     [numTiers]atomic.Uint64

	// Published by the delivery walk (measured messages only).
	blockTime [numTiers]atomicFloat
	blockHist [numTiers]*obs.Histogram
	occHist   [numTiers]*obs.Histogram
	delivered atomic.Uint64
	queueing  atomicFloat
	blocking  atomicFloat
	transmit  atomicFloat

	// The series buffer, preallocated to cap; mu guards append/compaction
	// against concurrent Snapshot copies. lastBusy/lastTime belong to the
	// sampler alone (interval-utilization deltas).
	mu       sync.Mutex
	series   []TelemetrySample
	lastBusy [numTiers]float64
	lastTime float64
}

// channelTiers maps every channel to its tier in one pass over the channel
// table New builds: each cluster's ICN1, ECN1 and concentrator links are
// contiguous ranges, and ICN2 follows them all. Every concentrator-owned
// link — the ECN1 root↔concentrator links and the concentrator↔ICN2
// injection and ejection links (ICN2's node channels) — belongs to
// TierConc; the injection link is the single serialization point the
// model's Eq. 33 queue describes. The map is a released run's when one is
// large enough; the ranges cover every channel, so each element is
// rewritten.
func (s *Sim) channelTiers() []uint8 {
	tiers := tierTables.Get(s.net.Channels())
	mark := func(from, to int32, tier Tier) {
		for c := from; c < to; c++ {
			tiers[c] = uint8(tier)
		}
	}
	for i := range s.clusters {
		cn := &s.clusters[i]
		mark(cn.icn1Base, cn.ecn1Base, TierICN1)
		mark(cn.ecn1Base, cn.rootUpBase, TierECN1)
		mark(cn.rootUpBase, cn.rootDownBase+int32(cn.ecn1.Roots()), TierConc)
	}
	// ICN2's first 2·Nodes() channels are its endpoint channels.
	nodeEnd := s.icn2Base + 2*int32(s.icn2.Nodes())
	mark(s.icn2Base, nodeEnd, TierConc)
	mark(nodeEnd, int32(len(tiers)), TierICN2)
	return tiers
}

// setupTelemetry builds the collector: the per-channel tier arena, the
// per-tier histograms and the preallocated series buffer. Every allocation
// telemetry will ever make happens here.
func (s *Sim) setupTelemetry() {
	cfg := *s.cfg.Telemetry
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1 << 16
	}
	if cfg.SeriesCap == 0 {
		cfg.SeriesCap = 256
	}
	t := &Telemetry{sim: s, stride: cfg.SampleEvery}
	t.tierOf = s.channelTiers()
	for _, tier := range t.tierOf {
		t.channels[tier]++
	}
	for i := 0; i < int(numTiers); i++ {
		t.blockHist[i] = obs.NewHistogram(DefBlockingBuckets)
		t.occHist[i] = obs.NewHistogram(DefOccupancyBuckets)
	}
	t.series = make([]TelemetrySample, 0, cfg.SeriesCap)
	s.tele = t
}

// Telemetry returns the live collector, or nil when Config.Telemetry was
// not set. Safe to use (via Snapshot) while Run is in flight on another
// goroutine.
func (s *Sim) Telemetry() *Telemetry { return s.tele }

// Progress returns the event count and simulated time of the latest sample
// (0, 0 before the first). Safe to call while Run is in flight on another
// goroutine; the two values are published separately, so a read racing a
// sample may pair that sample's simulated time with the previous count.
func (t *Telemetry) Progress() (events uint64, simTime float64) {
	return t.events.Load(), t.sampleTime.Load()
}

// sample runs on the simulator goroutine at the sampling stride: one walk
// over the channel table updating the per-tier aggregates and appending a
// time-series point. Allocation-free.
func (t *Telemetry) sample(events uint64) {
	s := t.sim
	now := s.sched.Now()
	var busy, maxU [numTiers]float64
	var maxQ [numTiers]int
	var grants [numTiers]uint64
	for c := int32(0); c < int32(len(t.tierOf)); c++ {
		tier := t.tierOf[c]
		b := s.net.BusyTime(c)
		busy[tier] += b
		if now > 0 {
			if u := b / now; u > maxU[tier] {
				maxU[tier] = u
			}
		}
		if q := s.net.MaxQueueLen(c); q > maxQ[tier] {
			maxQ[tier] = q
		}
		grants[tier] += s.net.Grants(c)
		t.occHist[tier].Observe(float64(s.net.QueueLen(c)))
	}
	var p TelemetrySample
	p.Events = events
	p.Time = now
	p.InFlight = s.net.InFlight()
	for i := 0; i < int(numTiers); i++ {
		t.busy[i].Store(busy[i])
		t.maxUtil[i].Store(maxU[i])
		t.maxQueue[i].Store(int64(maxQ[i]))
		t.grants[i].Store(grants[i])
		if dt := now - t.lastTime; dt > 0 && t.channels[i] > 0 {
			p.Util[i] = (busy[i] - t.lastBusy[i]) / (dt * float64(t.channels[i]))
		}
		t.lastBusy[i] = busy[i]
	}
	t.lastTime = now
	t.sampleTime.Store(now)
	t.events.Store(events)

	t.mu.Lock()
	if len(t.series) == cap(t.series) {
		// Compact in place: keep every other sample, double the stride, so
		// the series stays evenly spaced and bounded for runs of any length.
		half := len(t.series) / 2
		for i := 0; i < half; i++ {
			t.series[i] = t.series[2*i]
		}
		t.series = t.series[:half]
		t.stride *= 2
	}
	t.series = append(t.series, p)
	t.mu.Unlock()
}

// observeDelivery decomposes one measured message's latency by walking the
// worm's acquisition timestamps against the per-channel flit times — no
// state was recorded during the flight. The wait for the first channel is
// the source-queue time; the wait for channel i+1 is attributed as blocking
// to that channel's tier (so a saturated injection link surfaces in its own
// tier's blocking, matching the model's source-queue bottleneck rendering).
func (t *Telemetry) observeDelivery(m *message, lat float64) {
	w := &m.worm
	acq := w.Acquired()
	path := w.Path
	if len(acq) == 0 || len(acq) != len(path) {
		return
	}
	s := t.sim
	srcWait := acq[0] - w.InjectedAt
	tier0 := t.tierOf[path[0]]
	t.blockTime[tier0].Add(srcWait)
	t.blockHist[tier0].Observe(srcWait)
	netBlock := 0.0
	for i := 1; i < len(path); i++ {
		wait := acq[i] - (acq[i-1] + s.net.FlitTime(path[i-1]))
		if wait < 0 {
			wait = 0 // float round-off on an immediate grant
		}
		tier := t.tierOf[path[i]]
		t.blockTime[tier].Add(wait)
		t.blockHist[tier].Observe(wait)
		netBlock += wait
	}
	t.delivered.Add(1)
	t.queueing.Add(srcWait)
	t.blocking.Add(netBlock)
	t.transmit.Add(lat - srcWait - netBlock)
}

// TierTelemetry is one tier's aggregate in a TelemetryReport.
type TierTelemetry struct {
	Tier     string `json:"tier"`
	Channels int    `json:"channels"`
	// BusyTime sums channel holding time across the tier; Utilization is
	// the mean busy fraction (BusyTime / (Channels · sampled time)) and
	// MaxUtilization the busiest single channel's fraction.
	BusyTime       float64 `json:"busy_time"`
	Utilization    float64 `json:"utilization"`
	MaxUtilization float64 `json:"max_utilization"`
	// BlockingTime sums measured worms' header waits for this tier's
	// channels (including the injection wait for first-hop channels);
	// BlockingFraction is this tier's share of all blocking time, so the
	// fractions sum to 1 and argmax is the observed bottleneck tier.
	BlockingTime     float64 `json:"blocking_time"`
	BlockingFraction float64 `json:"blocking_fraction"`
	MaxQueue         int     `json:"max_queue"`
	Grants           uint64  `json:"grants"`
	// Blocking is the header-wait histogram (model time units); Occupancy
	// is the queue-depth histogram over (channel, sample) pairs.
	Blocking  obs.HistSnapshot `json:"blocking"`
	Occupancy obs.HistSnapshot `json:"occupancy"`
}

// LatencyDecomposition splits measured messages' mean latency into source
// queueing, in-network blocking and transmission (pipeline) time. The three
// means sum to the run's mean measured latency.
type LatencyDecomposition struct {
	Messages         uint64  `json:"messages"`
	MeanQueueing     float64 `json:"mean_queueing"`
	MeanBlocking     float64 `json:"mean_blocking"`
	MeanTransmission float64 `json:"mean_transmission"`
}

// TelemetryReport is a point-in-time view of the collector: the final
// report after Run, or a live snapshot during one.
type TelemetryReport struct {
	// Time and Events locate the most recent sample.
	Time   float64 `json:"time"`
	Events uint64  `json:"events"`
	// SeriesEvery is the current time-series stride in events.
	SeriesEvery   uint64               `json:"series_every"`
	Tiers         []TierTelemetry      `json:"tiers"`
	Decomposition LatencyDecomposition `json:"decomposition"`
	Series        []TelemetrySample    `json:"series,omitempty"`
}

// Snapshot captures the collector's state. Safe to call concurrently with a
// running simulation: it reads only the collector's own published state,
// never the engine's.
func (t *Telemetry) Snapshot() TelemetryReport {
	now := t.sampleTime.Load()
	rep := TelemetryReport{
		Time:   now,
		Events: t.events.Load(),
		Tiers:  make([]TierTelemetry, numTiers),
	}
	totalBlock := 0.0
	for i := 0; i < int(numTiers); i++ {
		totalBlock += t.blockTime[i].Load()
	}
	for i := 0; i < int(numTiers); i++ {
		tt := &rep.Tiers[i]
		tt.Tier = Tier(i).String()
		tt.Channels = t.channels[i]
		tt.BusyTime = t.busy[i].Load()
		if now > 0 && tt.Channels > 0 {
			tt.Utilization = tt.BusyTime / (now * float64(tt.Channels))
		}
		tt.MaxUtilization = t.maxUtil[i].Load()
		tt.BlockingTime = t.blockTime[i].Load()
		if totalBlock > 0 {
			tt.BlockingFraction = tt.BlockingTime / totalBlock
		}
		tt.MaxQueue = int(t.maxQueue[i].Load())
		tt.Grants = t.grants[i].Load()
		tt.Blocking = t.blockHist[i].Snapshot()
		tt.Occupancy = t.occHist[i].Snapshot()
	}
	if n := t.delivered.Load(); n > 0 {
		f := float64(n)
		rep.Decomposition = LatencyDecomposition{
			Messages:         n,
			MeanQueueing:     t.queueing.Load() / f,
			MeanBlocking:     t.blocking.Load() / f,
			MeanTransmission: t.transmit.Load() / f,
		}
	}
	t.mu.Lock()
	rep.SeriesEvery = t.stride
	rep.Series = append([]TelemetrySample(nil), t.series...)
	t.mu.Unlock()
	return rep
}

// TierSummary is the compact per-tier row of a TelemetrySummary.
type TierSummary struct {
	Tier             string  `json:"tier"`
	Utilization      float64 `json:"utilization"`
	MaxUtilization   float64 `json:"max_utilization"`
	BlockingFraction float64 `json:"blocking_fraction"`
}

// TelemetrySummary is the sweep-outcome-sized digest of a report: per-tier
// utilization and blocking share, the observed bottleneck tier (the argmax
// of blocking time), and the latency decomposition means. All values are
// finite (zero when nothing was measured), so the summary is JSON-safe.
type TelemetrySummary struct {
	Tiers            []TierSummary `json:"tiers"`
	Bottleneck       string        `json:"bottleneck_tier"`
	MeanQueueing     float64       `json:"mean_queueing"`
	MeanBlocking     float64       `json:"mean_blocking"`
	MeanTransmission float64       `json:"mean_transmission"`
}

// TierByName returns the summary row for the named tier, or nil.
func (s *TelemetrySummary) TierByName(name string) *TierSummary {
	for i := range s.Tiers {
		if s.Tiers[i].Tier == name {
			return &s.Tiers[i]
		}
	}
	return nil
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Summary digests a report.
func (r *TelemetryReport) Summary() *TelemetrySummary {
	sum := &TelemetrySummary{
		Tiers:            make([]TierSummary, len(r.Tiers)),
		MeanQueueing:     finiteOrZero(r.Decomposition.MeanQueueing),
		MeanBlocking:     finiteOrZero(r.Decomposition.MeanBlocking),
		MeanTransmission: finiteOrZero(r.Decomposition.MeanTransmission),
	}
	best, bestTime := "", math.Inf(-1)
	for i := range r.Tiers {
		t := &r.Tiers[i]
		sum.Tiers[i] = TierSummary{
			Tier:             t.Tier,
			Utilization:      finiteOrZero(t.Utilization),
			MaxUtilization:   finiteOrZero(t.MaxUtilization),
			BlockingFraction: finiteOrZero(t.BlockingFraction),
		}
		if t.BlockingTime > bestTime {
			best, bestTime = t.Tier, t.BlockingTime
		}
	}
	sum.Bottleneck = best
	return sum
}
