package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mcnet/internal/rng"
)

// times returns the clock of each dispatch r saw.
func (r *recorder) times() []float64 {
	ts := make([]float64, len(r.calls))
	for i, c := range r.calls {
		ts[i] = c.t
	}
	return ts
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		s.Call(tm, r.h, 0, 0)
	}
	s.RunAll(0)
	if got := r.times(); !sort.Float64sAreSorted(got) {
		t.Errorf("execution order %v not sorted", got)
	}
	if len(r.calls) != len(times) {
		t.Errorf("executed %d events, want %d", len(r.calls), len(times))
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	for i := int32(0); i < 10; i++ {
		s.Call(1.0, r.h, 0, i)
	}
	s.RunAll(0)
	for i, c := range r.calls {
		if c.arg != int32(i) {
			t.Fatalf("tie order %+v, want insertion order", r.calls)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	s.Call(2.5, r.h, 0, 0)
	if s.Now() != 0 {
		t.Errorf("initial Now() = %v, want 0", s.Now())
	}
	s.RunAll(0)
	if len(r.calls) != 1 || r.calls[0].t != 2.5 {
		t.Errorf("Now() inside event = %v, want [2.5]", r.times())
	}
	if s.Now() != 2.5 {
		t.Errorf("final Now() = %v, want 2.5", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	r.react = func(op, arg int32) {
		if op == 0 {
			s.CallAfter(2, r.h, 1, 0)
		}
	}
	s.Call(1, r.h, 0, 0)
	s.RunAll(0)
	if len(r.calls) != 2 || r.calls[1].op != 1 || r.calls[1].t != 3 {
		t.Errorf("dispatches %+v, want the CallAfter event at 3", r.calls)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	s.Call(10, r.h, 0, 0)
	s.Step()
	mustPanic(t, "Call before now", ErrPastEvent, func() { s.Call(5, r.h, 0, 0) })
	mustPanic(t, "CallAfter a negative delay", ErrPastEvent, func() { s.CallAfter(-1, r.h, 0, 0) })
}

func TestNonFiniteTimePanics(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		mustPanic(t, "Call at a non-finite time", ErrPastEvent, func() { s.Call(bad, r.h, 0, 0) })
	}
}

func TestRunEventLimit(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	for i := 1; i <= 10; i++ {
		s.Call(float64(i), r.h, 0, 0)
	}
	s.RunAll(3)
	if s.Executed() != 3 || s.Now() != 3 {
		t.Errorf("Executed = %d, Now = %v; want 3, 3", s.Executed(), s.Now())
	}
	// The limit counts from the call, not from the first event.
	s.RunAll(3)
	if s.Executed() != 6 {
		t.Errorf("Executed = %d after a second RunAll(3), want 6", s.Executed())
	}
	s.RunAll(0)
	if s.Executed() != 10 {
		t.Errorf("Executed = %d after RunAll(0), want 10", s.Executed())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain that schedules its successor; classic DES self-clocking.
	var s Scheduler
	r := newRecorder(&s)
	r.react = func(op, arg int32) {
		if len(r.calls) < 100 {
			s.CallAfter(1, r.h, 0, 0)
		}
	}
	s.Call(0, r.h, 0, 0)
	s.RunAll(0)
	if len(r.calls) != 100 || s.Now() != 99 {
		t.Errorf("count=%d now=%v, want 100, 99", len(r.calls), s.Now())
	}
	if s.Step() {
		t.Error("Step found an event after RunAll(0) returned")
	}
}

func TestRandomWorkloadExecutesAllInOrder(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var s Scheduler
		r := newRecorder(&s)
		const n = 500
		for i := 0; i < n; i++ {
			s.Call(src.Float64()*100, r.h, 0, 0)
		}
		s.RunAll(0)
		return len(r.calls) == n && sort.Float64sAreSorted(r.times())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
