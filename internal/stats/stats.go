// Package stats provides the online statistics used by the simulator:
// numerically stable running moments (Welford), time-weighted averages and
// batch-means confidence intervals for steady-state output analysis.
//
// The paper's methodology (§4) gathers statistics over 100,000 messages after
// a 10,000-message warm-up; this package supplies the accumulators while the
// simulator decides which observations fall inside the measurement window.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates count, mean, variance, min and max of a stream of
// observations using Welford's algorithm. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Count returns the number of observations.
func (r *Running) Count() int64 { return r.n }

// Mean returns the sample mean, or NaN with no observations.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the unbiased sample variance, or NaN with fewer than two
// observations. Constant samples yield exactly 0: the accumulated squared
// deviation is clamped at zero, so floating-point cancellation can never
// produce a negative variance or a NaN standard deviation.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	if r.m2 <= 0 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or NaN with no observations.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation, or NaN with no observations.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Summary is an immutable snapshot of a Running accumulator.
type Summary struct {
	Count    int64
	Mean     float64
	Variance float64
	Min      float64
	Max      float64
}

// Summarize snapshots the accumulator.
func (r *Running) Summarize() Summary {
	return Summary{
		Count:    r.n,
		Mean:     r.Mean(),
		Variance: r.Variance(),
		Min:      r.Min(),
		Max:      r.Max(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g",
		s.Count, s.Mean, math.Sqrt(s.Variance), s.Min, s.Max)
}

// BatchMeans implements the batch-means method for estimating a confidence
// interval of a steady-state mean from a correlated output series: the
// observations are grouped into contiguous batches and the batch averages are
// treated as approximately independent.
type BatchMeans struct {
	batchSize int64
	current   Running
	batches   []float64
	all       Running
}

// NewBatchMeans groups observations into batches of the given size.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: int64(batchSize)}
}

// Add incorporates one observation.
func (b *BatchMeans) Add(x float64) {
	b.all.Add(x)
	b.current.Add(x)
	if b.current.Count() == b.batchSize {
		b.batches = append(b.batches, b.current.Mean())
		b.current = Running{}
	}
}

// Mean returns the grand sample mean over all observations.
func (b *BatchMeans) Mean() float64 { return b.all.Mean() }

// Batches returns the number of complete batches.
func (b *BatchMeans) Batches() int { return len(b.batches) }

// HalfWidth returns the half-width of an approximate confidence interval for
// the mean at the given z value (e.g. 1.96 for 95%), or NaN with fewer than
// two complete batches (one batch mean carries no dispersion information).
// Constant observations give a half-width of exactly 0, never NaN: the
// batch-mean variance is clamped at zero like Running.Variance.
func (b *BatchMeans) HalfWidth(z float64) float64 {
	k := len(b.batches)
	if k < 2 {
		return math.NaN()
	}
	var acc Running
	for _, m := range b.batches {
		acc.Add(m)
	}
	return z * acc.StdDev() / math.Sqrt(float64(k))
}
