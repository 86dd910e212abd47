package stats

import (
	"math"
	"testing"
)

// The confidence-interval helpers feed simulation summaries that are
// rendered into CSV, so their degenerate cases must be well-defined values
// (NaN for "undefined", exact 0 for "no dispersion"), never a
// divide-by-zero artifact.

func TestRunningEmpty(t *testing.T) {
	var r Running
	for name, v := range map[string]float64{
		"Mean": r.Mean(), "Variance": r.Variance(), "StdDev": r.StdDev(),
		"Min": r.Min(), "Max": r.Max(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty Running.%s = %v, want NaN", name, v)
		}
	}
	if r.Count() != 0 {
		t.Errorf("empty Count = %d", r.Count())
	}
	s := r.Summarize()
	if s.Count != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Variance) {
		t.Errorf("empty Summarize = %+v, want NaN fields", s)
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(3.5)
	if got := r.Mean(); got != 3.5 {
		t.Errorf("Mean = %v, want 3.5", got)
	}
	if got := r.Min(); got != 3.5 {
		t.Errorf("Min = %v, want 3.5", got)
	}
	if got := r.Max(); got != 3.5 {
		t.Errorf("Max = %v, want 3.5", got)
	}
	if v := r.Variance(); !math.IsNaN(v) {
		t.Errorf("Variance of n=1 = %v, want NaN", v)
	}
	if sd := r.StdDev(); !math.IsNaN(sd) {
		t.Errorf("StdDev of n=1 = %v, want NaN", sd)
	}
}

func TestRunningConstantSamples(t *testing.T) {
	var r Running
	for i := 0; i < 1000; i++ {
		r.Add(42.125)
	}
	if v := r.Variance(); v != 0 {
		t.Errorf("Variance of constant samples = %v, want exactly 0", v)
	}
	if sd := r.StdDev(); sd != 0 {
		t.Errorf("StdDev of constant samples = %v, want exactly 0", sd)
	}
	if m := r.Mean(); m != 42.125 {
		t.Errorf("Mean of constant samples = %v, want 42.125", m)
	}
}

// TestRunningVarianceNeverNegative feeds Add runs of equal values at a
// magnitude (1e15, where one ulp is 0.125) chosen to provoke floating-point
// cancellation in the accumulated squared deviation, and checks that the
// variance and standard deviation stay non-negative and defined.
func TestRunningVarianceNeverNegative(t *testing.T) {
	var total Running
	for i := 0; i < 50; i++ {
		for j := 0; j < 20; j++ {
			total.Add(1e15 + float64(i))
		}
		if v := total.Variance(); v < 0 || math.IsNaN(v) {
			t.Fatalf("Variance = %v after run %d", v, i)
		}
		if sd := total.StdDev(); sd < 0 || math.IsNaN(sd) {
			t.Fatalf("StdDev = %v after run %d", sd, i)
		}
	}
}

func TestBatchMeansEmpty(t *testing.T) {
	b := NewBatchMeans(10)
	if m := b.Mean(); !math.IsNaN(m) {
		t.Errorf("empty Mean = %v, want NaN", m)
	}
	if b.Batches() != 0 {
		t.Errorf("empty Batches = %d", b.Batches())
	}
	if hw := b.HalfWidth(1.96); !math.IsNaN(hw) {
		t.Errorf("empty HalfWidth = %v, want NaN", hw)
	}
}

func TestBatchMeansSingleObservation(t *testing.T) {
	b := NewBatchMeans(10)
	b.Add(5)
	if m := b.Mean(); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if b.Batches() != 0 {
		t.Errorf("Batches = %d, want 0 (batch incomplete)", b.Batches())
	}
	if hw := b.HalfWidth(1.96); !math.IsNaN(hw) {
		t.Errorf("HalfWidth with no complete batch = %v, want NaN", hw)
	}
}

func TestBatchMeansSingleBatch(t *testing.T) {
	b := NewBatchMeans(4)
	for i := 0; i < 4; i++ {
		b.Add(float64(i))
	}
	if b.Batches() != 1 {
		t.Fatalf("Batches = %d, want 1", b.Batches())
	}
	if hw := b.HalfWidth(1.96); !math.IsNaN(hw) {
		t.Errorf("HalfWidth with one batch = %v, want NaN (no dispersion estimate)", hw)
	}
}

func TestBatchMeansConstantSamples(t *testing.T) {
	b := NewBatchMeans(5)
	for i := 0; i < 100; i++ {
		b.Add(7)
	}
	if b.Batches() != 20 {
		t.Fatalf("Batches = %d, want 20", b.Batches())
	}
	if hw := b.HalfWidth(1.96); hw != 0 {
		t.Errorf("HalfWidth of constant stream = %v, want exactly 0", hw)
	}
	if m := b.Mean(); m != 7 {
		t.Errorf("Mean = %v, want 7", m)
	}
}

func TestBatchMeansRejectsBadBatchSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBatchMeans(%d) did not panic", size)
				}
			}()
			NewBatchMeans(size)
		}()
	}
}
