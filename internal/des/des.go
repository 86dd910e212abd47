// Package des implements a deterministic discrete-event simulation engine:
// a future-event list ordered by (time, insertion sequence) and a scheduler
// that executes events in that total order.
//
// Determinism is load-bearing for the whole reproduction: simultaneous events
// are executed in insertion order, so a simulation driven by a seeded RNG
// produces bit-identical results on every run. The engine is single-threaded
// by design (a DES has one global clock); parallelism lives one level up, in
// the replication runner.
//
// # Hot path
//
// The future-event list is split by destination: one index-addressed
// binary heap per registered Handler plus one for closure events, each over
// concrete 32-byte event structs stored in one slice. Step runs the
// smallest (time, seq) root among the heaps; seq is one global counter, so
// the execution order is exactly that of a single heap over all events,
// while an engine's near-term events never sift through another engine's
// far-future ones (the simulator's per-node arrivals sit in the generator's
// heap, not the network's). A running handler's event stays at its heap's
// root until the handler's first Call on the same heap overwrites it and
// sifts down, which for a near-term successor stops within a level or two.
// The struct is deliberately pointer-free — callbacks are registered
// Handler IDs and payloads are caller-managed integer indices — so
// sift-up/down is a plain value copy with no per-event allocation, no
// interface boxing and no GC write barriers. Three scheduling APIs feed the
// heaps:
//
//   - Call(t, h, op, arg) is the allocation-free fast path: h names a
//     Handler registered once via Register, op discriminates the event kind
//     and arg carries a small integer payload (a channel, node or pool-slot
//     index). Simulation engines (wormhole, mcsim) dispatch all of their
//     per-message traffic through it.
//
//   - Reserve(n) and CallSeq(t, seq, h, op, arg) split a Call in two: the
//     sequence positions of a known series of events are claimed up front,
//     and each event is scheduled later, if at all, with the tie-break it
//     would have had if scheduled at the Reserve. Passed(t, seq) tells
//     whether such a key has already gone by, so a caller can settle an
//     event it never scheduled. The wormhole engine keys a worm's channel
//     releases this way and schedules only those a waiting worm needs.
//
//   - At(t, fn) / After(d, fn) is the ergonomic closure path. It allocates
//     one small handle per event (which is also what makes Cancel possible)
//     and is meant for setup, tests and low-rate callers.
package des

import (
	"errors"
	"math"
)

// Handler receives fast-path events. One Handler (typically the simulation
// engine itself) serves many event kinds, discriminated by op; arg carries a
// small integer payload such as a channel, node or pool-slot index.
type Handler interface {
	HandleEvent(op, arg int32)
}

// HandlerID names a Handler registered with a Scheduler.
type HandlerID int32

// closureHandler marks heap slots whose callback is a closure handle (the
// At/After path); arg then indexes the scheduler's handle table.
const closureHandler HandlerID = -1

// Event is the handle of a closure-scheduled callback. Cancelled events stay
// in the heap but are skipped when popped (lazy deletion), which keeps
// cancellation O(1).
type Event struct {
	time     float64
	fn       func()
	canceled bool
}

// Cancel prevents the event from running. Cancelling an already-executed or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether the event was cancelled.
func (e *Event) Canceled() bool { return e.canceled }

// Time returns the simulated time at which the event fires.
func (e *Event) Time() float64 { return e.time }

// event is one heap slot: 32 pointer-free bytes.
type event struct {
	time float64
	seq  uint64
	h    HandlerID
	op   int32
	arg  int32
}

// before is the heap order: time, with insertion sequence as the stable
// FIFO tie-break.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Scheduler owns the simulation clock and the future-event lists. The zero
// value is a scheduler at time 0 with no pending events.
type Scheduler struct {
	now float64
	// seq is the next unclaimed sequence number; cur is one past the seq of
	// the last dispatched event (0 before the first), so (now, cur−1) is the
	// key every newly scheduled event must follow.
	seq      uint64
	cur      uint64
	executed uint64

	// lists[0] holds the closure events of At/After, lists[h+1] those of
	// handler h. held is the index of the list whose root is the running
	// fast-path event (0 when none is: closure events are popped before
	// their callback runs).
	lists []eventHeap
	held  int

	handlers []Handler
	// handles and freeHandles form the side table of in-flight closure
	// events: slots are reused so a steady closure load allocates only the
	// *Event handles themselves.
	handles     []*Event
	freeHandles []int32
}

// Now returns the current simulated time.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of events in the future-event lists, including
// cancelled events not yet discarded. The running event is not pending.
func (s *Scheduler) Pending() int {
	n := 0
	for _, l := range s.lists {
		n += len(l)
	}
	if s.held != 0 {
		n--
	}
	return n
}

// Executed returns the number of events executed so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Passed reports whether the event key (t, seq) is at or before the running
// event's key, or the last dispatched event's once Step or Run has
// returned: an event scheduled there would already have run. Before the
// first dispatch no schedulable key has passed.
func (s *Scheduler) Passed(t float64, seq uint64) bool {
	return t < s.now || (t == s.now && seq < s.cur)
}

// initLists creates the closure list of a zero-value scheduler.
func (s *Scheduler) initLists() {
	if s.lists == nil {
		s.lists = make([]eventHeap, 1, 4)
	}
}

// Register adds a fast-path handler and returns its ID. Handlers are
// registered once at construction time and never removed.
func (s *Scheduler) Register(h Handler) HandlerID {
	s.initLists()
	s.handlers = append(s.handlers, h)
	s.lists = append(s.lists, nil)
	return HandlerID(len(s.handlers) - 1)
}

// ErrPastEvent reports an attempt to schedule an event before the current
// simulated time, or at the current time but ahead of the running event.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// ErrUnreservedSeq reports a CallSeq at a sequence position no Reserve has
// claimed.
var ErrUnreservedSeq = errors.New("des: sequence position not reserved")

// checkTime panics on past or non-finite times: scheduling into the past is
// always a programming error in the caller.
func (s *Scheduler) checkTime(t float64) {
	if t < s.now || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(ErrPastEvent)
	}
}

// Call schedules handlers[h].HandleEvent(op, arg) at absolute time t. This
// is the allocation-free fast path; no handle is returned (fast-path events
// cannot be cancelled).
func (s *Scheduler) Call(t float64, h HandlerID, op, arg int32) {
	s.checkTime(t)
	s.schedule(event{time: t, seq: s.seq, h: h, op: op, arg: arg})
	s.seq++
}

// CallAfter schedules handlers[h].HandleEvent(op, arg) after delay d.
func (s *Scheduler) CallAfter(d float64, h HandlerID, op, arg int32) {
	s.Call(s.now+d, h, op, arg)
}

// Reserve claims n consecutive sequence positions and returns the first.
// Events scheduled into them with CallSeq tie-break at equal times exactly
// as if they had been scheduled by n Calls at the moment of the Reserve, so
// a caller can schedule a known series of events one at a time, each from
// its predecessor, without changing the execution order.
func (s *Scheduler) Reserve(n int) uint64 {
	if n < 0 {
		panic("des: negative reservation")
	}
	first := s.seq
	s.seq += uint64(n)
	return first
}

// CallSeq schedules handlers[h].HandleEvent(op, arg) at absolute time t in
// the reserved sequence position seq. It panics with ErrUnreservedSeq if seq
// was never claimed, and with ErrPastEvent if (t, seq) does not follow the
// running event. Each reserved position is to be used at most once.
func (s *Scheduler) CallSeq(t float64, seq uint64, h HandlerID, op, arg int32) {
	s.checkTime(t)
	if seq >= s.seq {
		panic(ErrUnreservedSeq)
	}
	if t == s.now && seq < s.cur {
		panic(ErrPastEvent)
	}
	s.schedule(event{time: t, seq: seq, h: h, op: op, arg: arg})
}

// schedule files a fast-path event in its handler's list. The first event a
// running handler schedules on its own list takes over the root slot the
// running event still occupies: it sifts down from there, which for a
// near-term successor stops within a level or two, instead of the running
// event being popped and the successor pushed.
func (s *Scheduler) schedule(e event) {
	li := int(e.h) + 1
	if li == s.held {
		s.held = 0
		s.lists[li].siftDown(0, e)
		return
	}
	s.lists[li].push(e)
}

// At schedules fn at absolute time t and returns the event handle.
// It panics if t precedes the current time or is not a finite number.
func (s *Scheduler) At(t float64, fn func()) *Event {
	s.checkTime(t)
	s.initLists()
	e := &Event{time: t, fn: fn}
	var slot int32
	if n := len(s.freeHandles); n > 0 {
		slot = s.freeHandles[n-1]
		s.freeHandles = s.freeHandles[:n-1]
		s.handles[slot] = e
	} else {
		slot = int32(len(s.handles))
		s.handles = append(s.handles, e)
	}
	s.lists[0].push(event{time: t, seq: s.seq, h: closureHandler, arg: slot})
	s.seq++
	return e
}

// After schedules fn after delay d from the current time.
func (s *Scheduler) After(d float64, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// takeHandle detaches and returns the closure handle of slot.
func (s *Scheduler) takeHandle(slot int32) *Event {
	e := s.handles[slot]
	s.handles[slot] = nil
	s.freeHandles = append(s.freeHandles, slot)
	return e
}

// eventHeap is one future-event list: a binary min-heap in (time, seq)
// order.
type eventHeap []event

// push appends the event and restores the heap by sifting it up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].before(&e) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// siftDown places e at slot i, whose previous occupant it replaces, and
// restores the heap below it along the smaller-child path. e must not
// precede the events above slot i.
func (h eventHeap) siftDown(i int, e event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// popRoot removes the minimum event. The caller guarantees the heap is
// non-empty.
func (h *eventHeap) popRoot() {
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
}

// next returns the index of the list whose root is the next event to run,
// discarding cancelled closure events on the way, or −1 if every list is
// empty. seq is global, so comparing the roots by (time, seq) yields exactly
// the order one heap over all events would.
func (s *Scheduler) next() int {
	for {
		best := -1
		for i := range s.lists {
			if len(s.lists[i]) > 0 && (best < 0 || s.lists[i][0].before(&s.lists[best][0])) {
				best = i
			}
		}
		if best != 0 {
			return best
		}
		slot := s.lists[0][0].arg
		if !s.handles[slot].canceled {
			return 0
		}
		s.takeHandle(slot)
		s.lists[0].popRoot()
	}
}

// dispatch executes the root event of list li. A fast-path event stays at
// its list's root while its handler runs (see schedule) and is removed
// afterwards only if the handler did not reuse the slot.
func (s *Scheduler) dispatch(li int) {
	e := s.lists[li][0]
	s.now = e.time
	s.cur = e.seq + 1
	s.executed++
	if li == 0 {
		fn := s.takeHandle(e.arg).fn
		s.lists[0].popRoot()
		fn()
		return
	}
	s.held = li
	s.handlers[e.h].HandleEvent(e.op, e.arg)
	if s.held != 0 {
		s.held = 0
		s.lists[li].popRoot()
	}
}

// Step executes the next non-cancelled event and returns true, or returns
// false if the future-event lists are empty. Events must not call Step.
func (s *Scheduler) Step() bool {
	li := s.next()
	if li < 0 {
		return false
	}
	s.dispatch(li)
	return true
}

// Run executes events until the lists are exhausted, the clock would pass
// `until`, or maxEvents events have run (0 means no event limit). It returns
// the reason the loop stopped.
func (s *Scheduler) Run(until float64, maxEvents uint64) StopReason {
	start := s.executed
	for {
		if maxEvents > 0 && s.executed-start >= maxEvents {
			return StoppedEventLimit
		}
		li := s.next()
		if li < 0 {
			return StoppedEmpty
		}
		if s.lists[li][0].time > until {
			return StoppedHorizon
		}
		s.dispatch(li)
	}
}

// RunAll executes events until none remain or maxEvents is reached (0 = no
// limit).
func (s *Scheduler) RunAll(maxEvents uint64) StopReason {
	return s.Run(math.Inf(1), maxEvents)
}

// StopReason describes why Run returned.
type StopReason int

const (
	// StoppedEmpty means the future-event list is exhausted.
	StoppedEmpty StopReason = iota
	// StoppedHorizon means the next event lies beyond the time horizon.
	StoppedHorizon
	// StoppedEventLimit means the event budget was exhausted.
	StoppedEventLimit
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StoppedEmpty:
		return "empty"
	case StoppedHorizon:
		return "horizon"
	case StoppedEventLimit:
		return "event-limit"
	default:
		return "unknown"
	}
}
