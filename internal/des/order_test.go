package des

import (
	"errors"
	"testing"

	"mcnet/internal/rng"
)

// refEvent is one pending event of the reference model in orderCheck.
type refEvent struct {
	t   float64
	seq uint64
	id  int32
	h   int // handler index
}

// orderCheck runs a byte-coded program against a Scheduler and, in
// lockstep, against a reference model that keeps every pending event in one
// slice and always runs the (time, seq) minimum. Each dispatch must name the
// event the reference picks; the dispatched event then runs the program's
// next block of scheduling actions on both sides. Handlers 0–2 are heaps;
// handlers 3–5 are FIFO lanes, each fed at its own fixed delay.
type orderCheck struct {
	t        *testing.T
	s        *Scheduler
	hids     [3 + len(laneDelays)]HandlerID
	prog     []byte
	live     []refEvent
	reserved []uint64
	// seq, cur and now mirror the scheduler's sequence counter, one past
	// the running event's seq, and clock.
	seq, cur uint64
	now      float64
	ids      int32
	executed uint64
}

// orderHandler forwards the dispatches of handler idx to the check.
type orderHandler struct {
	c   *orderCheck
	idx int
}

func (h *orderHandler) HandleEvent(op, arg int32) {
	if int(op) != h.idx {
		h.c.t.Fatalf("handler %d received op %d", h.idx, op)
	}
	h.c.dispatched(h.idx, arg)
}

// fuzzDelays are the scheduling offsets a program draws from: mostly zero
// or small multiples of 0.5, so equal times are common and exact.
var fuzzDelays = [...]float64{0, 0, 0, 0.5, 1, 1, 2, 3}

// laneDelays are the fixed delays of the FIFO lanes, drawn from fuzzDelays
// so lane events tie with heap events and with each other.
var laneDelays = [...]float64{0, 0.5, 1}

func (c *orderCheck) next() int {
	if len(c.prog) == 0 {
		return -1
	}
	b := c.prog[0]
	c.prog = c.prog[1:]
	return int(b)
}

// runBlock decodes and applies up to three actions.
func (c *orderCheck) runBlock() {
	n := c.next()
	for k := 0; k < n%4; k++ {
		op, b := c.next(), c.next()
		if op < 0 || b < 0 {
			return
		}
		c.act(op%4, b)
	}
}

func (c *orderCheck) add(t float64, seq uint64, h int) int32 {
	c.ids++
	c.live = append(c.live, refEvent{t: t, seq: seq, id: c.ids, h: h})
	return c.ids
}

func (c *orderCheck) act(op, b int) {
	t := c.now + fuzzDelays[b%len(fuzzDelays)]
	h := b / len(fuzzDelays) % 3 // a heap handler
	switch op {
	case 0: // Call
		id := c.add(t, c.seq, h)
		c.seq++
		c.s.Call(t, c.hids[h], int32(h), id)
	case 1: // Reserve
		n := 1 + b%3
		if first := c.s.Reserve(n); first != c.seq {
			c.t.Fatalf("Reserve(%d) = %d, want %d", n, first, c.seq)
		}
		for i := 0; i < n; i++ {
			c.reserved = append(c.reserved, c.seq+uint64(i))
		}
		c.seq += uint64(n)
	case 2: // CallSeq into a reserved position
		if len(c.reserved) == 0 {
			return
		}
		i := b % len(c.reserved)
		seq := c.reserved[i]
		c.reserved = append(c.reserved[:i], c.reserved[i+1:]...)
		if t == c.now && seq < c.cur {
			t += 0.5 // keep the key after the running event
		}
		id := c.add(t, seq, h)
		c.s.CallSeq(t, seq, c.hids[h], int32(h), id)
	case 3: // Call on a lane, at its fixed delay
		k := b % len(laneDelays)
		h = 3 + k
		id := c.add(c.now+laneDelays[k], c.seq, h)
		c.seq++
		c.s.Call(c.now+laneDelays[k], c.hids[h], int32(h), id)
	}
}

// refNext removes and returns the reference's next event.
func (c *orderCheck) refNext() (refEvent, bool) {
	best := -1
	for i, e := range c.live {
		if best < 0 || e.t < c.live[best].t || (e.t == c.live[best].t && e.seq < c.live[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return refEvent{}, false
	}
	e := c.live[best]
	c.live = append(c.live[:best], c.live[best+1:]...)
	return e, true
}

func (c *orderCheck) dispatched(h int, id int32) {
	want, ok := c.refNext()
	if !ok {
		c.t.Fatalf("dispatched event %d (handler %d) but the reference has none pending", id, h)
	}
	if want.id != id || want.h != h || c.s.Now() != want.t {
		c.t.Fatalf("dispatched event %d (handler %d) at %v, reference wants %d (handler %d) at %v",
			id, h, c.s.Now(), want.id, want.h, want.t)
	}
	c.checkPassed(want)
	c.now, c.cur = want.t, want.seq+1
	c.executed++
	if got := c.s.Executed(); got != c.executed {
		c.t.Fatalf("Executed() = %d during dispatch %d", got, c.executed)
	}
	c.runBlock()
}

// checkPassed checks Passed against the reference while run, the event it
// picked, is dispatched: its key and the previous dispatch's have passed,
// no pending event's has, and a reserved but unused position at the
// running time has exactly when it sorts before run.
func (c *orderCheck) checkPassed(run refEvent) {
	if !c.s.Passed(run.t, run.seq) {
		c.t.Fatalf("Passed(%v, %d) = false for the running event", run.t, run.seq)
	}
	if c.executed > 0 && !c.s.Passed(c.now, c.cur-1) {
		c.t.Fatalf("Passed(%v, %d) = false for the previous dispatch", c.now, c.cur-1)
	}
	for _, e := range c.live {
		if c.s.Passed(e.t, e.seq) {
			c.t.Fatalf("Passed(%v, %d) = true for a pending event", e.t, e.seq)
		}
	}
	for _, seq := range c.reserved {
		if got, want := c.s.Passed(run.t, seq), seq < run.seq; got != want {
			c.t.Fatalf("Passed(%v, %d) = %v at reserved position, reference order says %v", run.t, seq, got, want)
		}
	}
}

func checkSchedulerOrder(t *testing.T, prog []byte) {
	s := &Scheduler{}
	c := &orderCheck{t: t, s: s, prog: prog}
	// Lanes and heaps interleave in the list order next() scans.
	for i := range 3 {
		c.hids[i] = s.Register(&orderHandler{c: c, idx: i})
		c.hids[3+i] = s.RegisterFIFO(&orderHandler{c: c, idx: 3 + i})
	}
	for i := 0; i < 4; i++ {
		c.runBlock()
	}
	s.RunAll(0)
	if e, ok := c.refNext(); ok {
		t.Fatalf("scheduler ran dry with event %d (handler %d, t=%v) still pending in the reference", e.id, e.h, e.t)
	}
	if s.Executed() != c.executed {
		t.Fatalf("Executed() = %d, reference executed %d", s.Executed(), c.executed)
	}
	if c.executed > 0 && (!s.Passed(c.now, c.cur-1) || s.Passed(c.now, c.seq)) {
		t.Fatalf("after the run Passed disagrees at the last dispatch (%v, %d)", c.now, c.cur-1)
	}
}

// FuzzSchedulerOrder checks the dispatch sequence, Executed() and Passed of
// arbitrary programs of Call and Reserve+CallSeq over three heap handlers,
// and of fixed-delay Calls on three FIFO lanes, against a reference that
// sorts the live events by (time, seq).
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 3, 2})
	f.Add([]byte{3, 1, 2, 2, 8, 2, 17, 3, 0, 9, 0, 0, 0, 1, 3, 2, 0, 1, 0, 0, 4, 3})
	// Lane calls at every delay, tied with heap calls at the same times.
	f.Add([]byte{3, 3, 0, 3, 1, 0, 3, 3, 3, 2, 0, 4, 3, 0, 3, 1, 3, 2, 2, 3, 1, 3, 0, 3, 3, 1, 0, 0, 3, 2})
	src := rng.New(5)
	for k := 0; k < 4; k++ {
		prog := make([]byte, 200+100*k)
		for i := range prog {
			prog[i] = byte(src.Uint64())
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkSchedulerOrder(t, prog)
	})
}

// mustPanic runs fn and reports whether it panicked with want.
func mustPanic(t *testing.T, name string, want error, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if err, ok := r.(error); !ok || !errors.Is(err, want) {
			t.Errorf("%s: panic %v, want %v", name, r, want)
		}
	}()
	fn()
}

// TestFIFOPanicsOutOfOrder: a lane rejects an event that would run before
// the last one pending on it, whether it comes by an earlier time or by an
// earlier reserved sequence position at the same time, and accepts a later
// one. A lane whose delay is not constant cannot reorder a run silently.
func TestFIFOPanicsOutOfOrder(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	r.h = s.RegisterFIFO(r)
	first := s.Reserve(1)
	s.Call(2, r.h, 0, 0)
	mustPanic(t, "earlier time", ErrFIFOOrder, func() { s.Call(1, r.h, 0, 1) })
	mustPanic(t, "earlier seq at the same time", ErrFIFOOrder, func() { s.CallSeq(2, first, r.h, 0, 1) })
	s.Call(2, r.h, 0, 2)
	s.Call(3, r.h, 0, 3)
	s.RunAll(0)
	if len(r.calls) != 3 || r.calls[1].arg != 2 || r.calls[2].t != 3 {
		t.Fatalf("dispatches %+v, want args 0, 2, 3", r.calls)
	}
	// An emptied lane takes any event that follows the last dispatch.
	s.Call(3, r.h, 0, 4)
	s.RunAll(0)
	if len(r.calls) != 4 {
		t.Fatalf("emptied lane dropped an event: %+v", r.calls)
	}
}

// TestFIFOReusesStorage: a lane that is drained as fast as it is fed runs
// every event in order, and its storage, once it has grown to hold the
// pending events, stops growing: a full lane moves them to its start.
func TestFIFOReusesStorage(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	r.h = s.RegisterFIFO(r)
	const pending = 8
	r.react = func(op, arg int32) {
		if arg < 1000 {
			s.CallAfter(1, r.h, 0, arg+pending)
		}
	}
	for i := int32(0); i < pending; i++ {
		s.Call(float64(i)/pending, r.h, 0, i)
	}
	s.RunAll(0)
	if len(r.calls) != 1000+pending {
		t.Fatalf("%d dispatches, want %d", len(r.calls), 1000+pending)
	}
	for i, c := range r.calls {
		if c.arg != int32(i) {
			t.Fatalf("dispatch %d ran event %d", i, c.arg)
		}
	}
	if c := cap(s.lists[r.h].ev); c > 2*pending {
		t.Errorf("lane storage grew to %d events for %d pending", c, pending)
	}
}

func TestCallSeqPanicsOnUnreservedSeq(t *testing.T) {
	var s Scheduler
	h := newRecorder(&s).h
	mustPanic(t, "nothing reserved", ErrUnreservedSeq, func() { s.CallSeq(1, 0, h, 0, 0) })
	first := s.Reserve(2)
	s.CallSeq(1, first+1, h, 0, 0)
	mustPanic(t, "past the reservation", ErrUnreservedSeq, func() { s.CallSeq(1, first+2, h, 0, 0) })
}

// callSeqProbe schedules into reserved positions from inside its own
// dispatch and checks which keys CallSeq rejects.
type callSeqProbe struct {
	t        *testing.T
	s        *Scheduler
	h        HandlerID
	reserved uint64 // first of two positions; the running event holds the second
}

func (p *callSeqProbe) HandleEvent(op, arg int32) {
	if op != 0 {
		return
	}
	now := p.s.Now()
	mustPanic(p.t, "at the running event", ErrPastEvent, func() { p.s.CallSeq(now, p.reserved+1, p.h, 1, 0) })
	mustPanic(p.t, "before the running event", ErrPastEvent, func() { p.s.CallSeq(now, p.reserved, p.h, 1, 0) })
	mustPanic(p.t, "before the current time", ErrPastEvent, func() { p.s.CallSeq(now-1, p.reserved, p.h, 1, 0) })
	// A later time makes the earlier position legal.
	p.s.CallSeq(now+1, p.reserved, p.h, 1, 0)
}

func TestCallSeqPanicsAtOrBeforeRunningEvent(t *testing.T) {
	var s Scheduler
	p := &callSeqProbe{t: t, s: &s}
	p.h = s.Register(p)
	p.reserved = s.Reserve(2)
	s.CallSeq(2, p.reserved+1, p.h, 0, 0)
	s.RunAll(0)
	if s.Executed() != 2 || s.Now() != 3 {
		t.Errorf("Executed = %d, Now = %v; want 2 events ending at 3", s.Executed(), s.Now())
	}
}

// passedProbe checks Passed against the key of the event it runs in: seq
// positions first..first+2 are reserved, and the probe runs at (2, first+1).
type passedProbe struct {
	t     *testing.T
	s     *Scheduler
	first uint64
	ran   bool
}

func (p *passedProbe) HandleEvent(op, arg int32) {
	if op != 0 {
		return
	}
	p.ran = true
	checkPassed(p.t, "while running", p.s, p.first)
}

// checkPassed checks Passed around the key (2, first+1) of the running or
// last dispatched event.
func checkPassed(t *testing.T, when string, s *Scheduler, first uint64) {
	t.Helper()
	for _, c := range []struct {
		t    float64
		seq  uint64
		want bool
	}{
		{2, first, true},      // tie at now, earlier seq
		{2, first + 1, true},  // the running key itself
		{2, first + 2, false}, // tie at now, later seq
		{1.5, first + 9, true},
		{2.5, 0, false},
	} {
		if got := s.Passed(c.t, c.seq); got != c.want {
			t.Errorf("%s: Passed(%v, %d) = %v, want %v", when, c.t, c.seq, got, c.want)
		}
	}
}

func TestPassed(t *testing.T) {
	var s Scheduler
	if s.Passed(0, 0) {
		t.Error("Passed(0, 0) before any dispatch")
	}
	p := &passedProbe{t: t, s: &s}
	h := s.Register(p)
	s.Call(1, h, 1, 0)
	p.first = s.Reserve(3)
	s.CallSeq(2, p.first+1, h, 0, 0)
	if s.Passed(1, 0) {
		t.Error("Passed(1, 0) before any dispatch")
	}
	s.RunAll(0)
	if !p.ran {
		t.Fatal("probe never ran")
	}
	checkPassed(t, "after RunAll", &s, p.first)
}
