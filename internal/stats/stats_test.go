package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mcnet/internal/rng"
)

func naiveMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, math.NaN()
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

func TestRunningMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		wantMean, wantVar := naiveMeanVar(xs)
		scale := math.Max(1, math.Abs(wantMean))
		if math.Abs(r.Mean()-wantMean) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, wantVar)
		return math.Abs(r.Variance()-wantVar) <= 1e-6*vscale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Variance()) || !math.IsNaN(r.Min()) {
		t.Error("empty accumulator should report NaN statistics")
	}
	r.Add(5)
	if r.Mean() != 5 || r.Min() != 5 || r.Max() != 5 {
		t.Errorf("single observation: mean=%v min=%v max=%v, want 5", r.Mean(), r.Min(), r.Max())
	}
	if !math.IsNaN(r.Variance()) {
		t.Error("variance of one observation should be NaN")
	}
}

func TestRunningMinMax(t *testing.T) {
	var r Running
	for _, x := range []float64{3, -1, 4, 1, 5, -9, 2, 6} {
		r.Add(x)
	}
	if r.Min() != -9 || r.Max() != 6 {
		t.Errorf("min=%v max=%v, want -9, 6", r.Min(), r.Max())
	}
}

func TestBatchMeansCoverage(t *testing.T) {
	// For i.i.d. uniform observations the 95% CI should cover the true mean
	// in most replications.
	const reps = 200
	covered := 0
	for rep := 0; rep < reps; rep++ {
		src := rng.NewStream(99, uint64(rep))
		bm := NewBatchMeans(50)
		for i := 0; i < 2000; i++ {
			bm.Add(src.Float64())
		}
		hw := bm.HalfWidth(1.96)
		if math.IsNaN(hw) {
			t.Fatalf("rep %d: HalfWidth is NaN with %d batches", rep, bm.Batches())
		}
		if math.Abs(bm.Mean()-0.5) <= hw {
			covered++
		}
	}
	// Expect ≈95% coverage; accept anything above 85% to keep the test robust.
	if covered < int(0.85*reps) {
		t.Errorf("CI covered true mean in %d/%d reps, want ≥ %d", covered, reps, int(0.85*reps))
	}
}

func TestBatchMeansHalfWidthNeedsTwoBatches(t *testing.T) {
	bm := NewBatchMeans(10)
	for i := 0; i < 15; i++ {
		bm.Add(1)
	}
	if bm.Batches() != 1 {
		t.Fatalf("Batches = %d, want 1", bm.Batches())
	}
	if !math.IsNaN(bm.HalfWidth(1.96)) {
		t.Error("half-width with one batch should be NaN")
	}
}

func TestSummaryString(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(3)
	s := r.Summarize()
	if s.Count != 2 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
