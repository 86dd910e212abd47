package des

import (
	"testing"
	"unsafe"
)

// call is one dispatch a recorder saw: the clock, the payload, and the
// dispatch's position in the run (Executed() while it ran).
type call struct {
	t       float64
	op, arg int32
	n       uint64
}

// recorder is a test Handler that logs every dispatch and then runs react,
// if set, which may schedule more events.
type recorder struct {
	s     *Scheduler
	h     HandlerID
	calls []call
	react func(op, arg int32)
}

func newRecorder(s *Scheduler) *recorder {
	r := &recorder{s: s}
	r.h = s.Register(r)
	return r
}

func (r *recorder) HandleEvent(op, arg int32) {
	r.calls = append(r.calls, call{r.s.Now(), op, arg, r.s.Executed()})
	if r.react != nil {
		r.react(op, arg)
	}
}

func TestCallDispatchesToRegisteredHandler(t *testing.T) {
	var s Scheduler
	a, b := newRecorder(&s), newRecorder(&s)
	s.Call(2, a.h, 1, 10)
	s.Call(1, b.h, 2, 20)
	s.CallAfter(3, a.h, 3, 30)
	s.RunAll(0)
	if len(a.calls) != 2 || len(b.calls) != 1 {
		t.Fatalf("dispatch counts a=%d b=%d, want 2/1", len(a.calls), len(b.calls))
	}
	if a.calls[0].t != 2 || a.calls[0].op != 1 || a.calls[0].arg != 10 {
		t.Errorf("a first call = %+v, want t=2 op=1 arg=10", a.calls[0])
	}
	if a.calls[1].t != 3 || a.calls[1].op != 3 || a.calls[1].arg != 30 {
		t.Errorf("a second call = %+v, want t=3 op=3 arg=30", a.calls[1])
	}
	if b.calls[0].t != 1 || b.calls[0].op != 2 || b.calls[0].arg != 20 {
		t.Errorf("b call = %+v, want t=1 op=2 arg=20", b.calls[0])
	}
	if s.Executed() != 3 {
		t.Errorf("Executed = %d, want 3", s.Executed())
	}
}

// TestCallAndAtShareFIFOTieBreak checks the determinism contract across
// handlers: simultaneous events run in scheduling order regardless of which
// handler's list holds them.
func TestCallAndAtShareFIFOTieBreak(t *testing.T) {
	var s Scheduler
	rs := [2]*recorder{newRecorder(&s), newRecorder(&s)}
	for i := int32(0); i < 20; i++ {
		s.Call(1.0, rs[i%2].h, 0, i)
	}
	s.RunAll(0)
	if s.Executed() != 20 {
		t.Fatalf("executed %d events, want 20", s.Executed())
	}
	for _, r := range rs {
		for _, c := range r.calls {
			if c.n != uint64(c.arg)+1 {
				t.Fatalf("event %d ran as dispatch %d, want scheduling order", c.arg, c.n)
			}
		}
	}
}

func TestCallPanicsOnPastEvent(t *testing.T) {
	var s Scheduler
	r := newRecorder(&s)
	s.Call(5, r.h, 0, 0)
	s.RunAll(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Call into the past did not panic")
		}
	}()
	s.Call(1, r.h, 0, 0)
}

// TestListsArrayFillsCacheLines: a scheduler's lists array, whose slice
// headers change on every dispatch, spans whole 64-byte cache lines, so its
// allocation size class starts every object on a line boundary and two
// schedulers running on two cores never write to one line.
func TestListsArrayFillsCacheLines(t *testing.T) {
	var s Scheduler
	newRecorder(&s)
	if n := uintptr(cap(s.lists)) * unsafe.Sizeof(eventList{}); n%64 != 0 {
		t.Errorf("lists array is %d bytes, not whole cache lines", n)
	}
}
