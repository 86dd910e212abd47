package obs

import (
	"math"
	"sync/atomic"
)

// DefLatencyBuckets are the default request-latency histogram bounds in
// seconds, spanning the cached analyze fast path (~10µs) through
// multi-second simulations.
var DefLatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 5e-3, 25e-3, 100e-3, 500e-3, 2.5, 10, 60,
}

// Histogram is a fixed-bucket concurrent histogram: Observe is a couple of
// atomic adds with no locking, so it can sit on a ~100k op/s request path
// without becoming a serialization point.
type Histogram struct {
	bounds []float64       // ascending upper bounds; an implicit +Inf closes the last bucket
	counts []atomic.Uint64 // len(bounds)+1: per-bucket (non-cumulative) counts
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The +Inf bucket is implicit. Panics on empty or unordered bounds — bucket
// layouts are compile-time decisions, not runtime inputs.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search beats linear scan only past ~30 buckets; latency
	// histograms are small and most observations land in the first few
	// buckets, so the linear scan is the fast path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// HistSnapshot is a consistent-enough point-in-time view of a Histogram for
// exposition: cumulative bucket counts per bound plus the +Inf total.
// (Prometheus scrapes tolerate the benign read skew of concurrent
// observation; no locking is worth that tolerance.) Its JSON form is the
// histogram's wire form in telemetry reports.
type HistSnapshot struct {
	Bounds     []float64 `json:"bounds"`     // the histogram's upper bounds (not including +Inf)
	Cumulative []uint64  `json:"cumulative"` // len(Bounds)+1: count ≤ each bound, then the +Inf total
	Count      uint64    `json:"count"`      // the +Inf total, so _count always equals the +Inf bucket
	Sum        float64   `json:"sum"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
		Sum:        math.Float64frombits(h.sum.Load()),
	}
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		s.Cumulative[i] = run
	}
	s.Count = run
	return s
}
