// Package des implements a deterministic discrete-event simulation engine:
// future-event lists ordered by (time, insertion sequence) and a scheduler
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
// Every event is a call to a Handler registered once via Register: the
// event names the handler and carries two int32 payloads, op and arg, whose
// meaning the handler defines. Most handlers take op as the event kind and
// arg as a small index (a channel, node or pool-slot index); the wormhole
// engine's hop handler takes op as the channel the header requests next and
// arg as the worm. The future-event list is split by handler: one list per
// registered Handler, an index-addressed binary heap unless the handler is
// a FIFO lane (below), each over concrete 24-byte event structs stored in
// one slice. An event's list names its handler, so the struct holds only
// the key and the payload, and Call finds the event's slot by its key and
// writes the fields straight into it. Step runs the smallest (time, seq)
// root among the heaps; seq is one global counter, so the execution order
// is exactly that of a single heap over all events, while an engine's
// near-term events never sift through another engine's far-future ones
// (the simulator's per-node arrivals sit in the generator's heap, not the
// network's). A
// running handler's event stays at its heap's root until the handler's first
// Call on the same heap overwrites it and sifts down, which for a near-term
// successor stops within a level or two. The struct is deliberately
// pointer-free, so sift-up/down is a plain value copy with no per-event
// allocation, no interface boxing and no GC write barriers.
//
// A handler registered with RegisterFIFO is a lane: a FIFO instead of a
// heap, for events that are always scheduled one fixed delay d after the
// current time. The clock never goes back, float addition is monotone and
// seq only grows, so such events arrive in (time, seq) order and a FIFO
// holds them exactly: append at the tail, pop at the head, no sifting. Step
// compares a lane's head with the heaps' roots by the same (time, seq) key,
// so lanes change no dispatch order. A lane checks its order on every
// append and panics with ErrFIFOOrder if an event would precede its tail,
// so a delay that is not constant fails loudly instead of reordering the
// run. A lane's event is popped before its handler runs; the held-root
// reuse above is a heap trick. The wormhole engine gives each distinct flit
// time of a network a lane for its header hops, up to eight; hops over
// channels past the eighth distinct flit time use a heap of their own.
//
// Events are scheduled in one of two ways:
//
//   - Call(t, h, op, arg) and CallAfter(d, h, op, arg) schedule an event at
//     an absolute time or after a delay, in the next sequence position.
//
//   - Reserve(n) and CallSeq(t, seq, h, op, arg) split a Call in two: the
//     sequence positions of a known series of events are claimed up front,
//     and each event is scheduled later, if at all, with the tie-break it
//     would have had if scheduled at the Reserve. Passed(t, seq) tells
//     whether such a key has already gone by, so a caller can settle an
//     event it never scheduled. The wormhole engine keys a worm's channel
//     releases this way and schedules only those a waiting worm needs.
package des

import (
	"errors"
	"math"

	"mcnet/internal/freelist"
)

// Handler receives events. The handler defines both payloads: typically one
// Handler (the simulation engine itself) serves many event kinds,
// discriminated by op, and arg carries a small integer payload such as a
// channel, node or pool-slot index.
type Handler interface {
	HandleEvent(op, arg int32)
}

// HandlerID names a Handler registered with a Scheduler.
type HandlerID int32

// event is one list slot: 24 pointer-free bytes. The list it sits in names
// its handler.
type event struct {
	time float64
	seq  uint64
	op   int32
	arg  int32
}

// precedes is the event order: time, with insertion sequence as the
// stable FIFO tie-break. It reports whether e runs before key (t, seq).
func (e *event) precedes(t float64, seq uint64) bool {
	if e.time != t {
		return e.time < t
	}
	return e.seq < seq
}

// before reports whether e runs before o.
func (e *event) before(o *event) bool { return e.precedes(o.time, o.seq) }

// Scheduler owns the simulation clock and the future-event lists. The zero
// value is a scheduler at time 0 with no handlers and no pending events.
type Scheduler struct {
	now float64
	// seq is the next unclaimed sequence number; cur is one past the seq of
	// the last dispatched event (0 before the first), so (now, cur−1) is the
	// key every newly scheduled event must follow.
	seq      uint64
	cur      uint64
	executed uint64

	// lists[h] holds the events of handler h. While a heap handler runs,
	// its event is still the root of lists[held-1]; held is 0 when no root
	// is held.
	lists []eventList
	held  int

	handlers []Handler
}

// Now returns the current simulated time.
func (s *Scheduler) Now() float64 { return s.now }

// Executed returns the number of events executed so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Passed reports whether the event key (t, seq) is at or before the running
// event's key, or the last dispatched event's once Step or RunAll has
// returned: an event scheduled there would already have run. Before the
// first dispatch no schedulable key has passed.
func (s *Scheduler) Passed(t float64, seq uint64) bool {
	return t < s.now || (t == s.now && seq < s.cur)
}

// eventLists holds the event lists of released schedulers: each entry is a
// Scheduler's lists, with every per-handler list kept, emptied, in its
// capacity.
var eventLists freelist.List[eventList]

// Register adds a handler whose events are kept in a binary heap, and
// returns its ID. Handlers are registered once at construction time and
// never removed. A scheduler's first Register or RegisterFIFO takes a
// released scheduler's event lists, so its lists start at the capacity an
// earlier run grew them to.
func (s *Scheduler) Register(h Handler) HandlerID { return s.register(h, false) }

// RegisterFIFO adds a handler whose events are kept in a FIFO, and returns
// its ID. Every event scheduled for it must follow the last one still
// pending, in (time, seq) order; Call and CallSeq panic with ErrFIFOOrder
// otherwise. Scheduling each event at the current time plus one fixed
// delay always meets that.
func (s *Scheduler) RegisterFIFO(h Handler) HandlerID { return s.register(h, true) }

func (s *Scheduler) register(h Handler, fifo bool) HandlerID {
	if s.lists == nil {
		// A new array holds 8 lists, 320 bytes: a size class whose objects
		// start on cache-line boundaries, so schedulers running at once on
		// two cores never write to one cache line. Four lists alone, 160
		// bytes, share lines with their neighbours, and that false sharing
		// made two-worker sweeps up to 30% slower.
		s.lists = eventLists.Get(8)[:0]
	}
	s.handlers = append(s.handlers, h)
	var ev eventHeap
	if n := len(s.lists); n < cap(s.lists) {
		ev = s.lists[:n+1][n].ev[:0] // a released scheduler's list
	}
	s.lists = append(s.lists, eventList{ev: ev, fifo: fifo})
	return HandlerID(len(s.handlers) - 1)
}

// Release hands the scheduler's event lists to the next Scheduler to
// Register a handler, and resets the scheduler to its zero value: pending
// events are dropped, and the handlers are forgotten. The lists hold only
// pointer-free events, so nothing they keep points back into the run.
func (s *Scheduler) Release() {
	eventLists.Put(s.lists)
	*s = Scheduler{}
}

// ErrPastEvent reports an attempt to schedule an event before the current
// simulated time, or at the current time but ahead of the running event.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// ErrFIFOOrder reports an event scheduled for a RegisterFIFO handler ahead
// of an event already pending for it.
var ErrFIFOOrder = errors.New("des: event precedes the tail of its FIFO list")

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

// Call schedules handlers[h].HandleEvent(op, arg) at absolute time t. It
// panics with ErrPastEvent if t precedes the current time or is not a finite
// number.
func (s *Scheduler) Call(t float64, h HandlerID, op, arg int32) {
	s.checkTime(t)
	s.schedule(t, s.seq, h, op, arg)
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
	s.schedule(t, seq, h, op, arg)
}

// schedule files an event in its handler's list. The list finds the
// event's slot by its key alone and the fields are written straight into
// it: an event passed by value would be stored field by field and then
// reloaded whole into the slot, a load the store buffer cannot forward. The
// first event a running heap handler schedules on its own list takes over
// the root slot the running event still occupies: it sifts down from there,
// which for a near-term successor stops within a level or two, instead of
// the running event being popped and the successor pushed.
func (s *Scheduler) schedule(t float64, seq uint64, h HandlerID, op, arg int32) {
	l := &s.lists[h]
	var e *event
	switch {
	case l.fifo:
		e = l.append(t, seq)
	case int(h)+1 == s.held:
		s.held = 0
		e = l.ev.siftDown(0, t, seq)
	default:
		e = l.ev.push(t, seq)
	}
	e.time, e.seq, e.op, e.arg = t, seq, op, arg
}

// eventList is one handler's future-event list: a heap, or for a
// RegisterFIFO handler a FIFO whose pending events are ev[head:]. A heap's
// head is always 0, so ev[head] is the next event of either kind.
type eventList struct {
	ev   eventHeap
	head int
	fifo bool
}

// append adds a slot for the event (t, seq) at the tail of a FIFO list,
// after checking that the event does not precede the tail, and returns it.
// A full list first moves its pending events to the start of its storage
// if that frees at least half of it, and grows otherwise, so appends stay
// amortized O(1).
func (l *eventList) append(t float64, seq uint64) *event {
	n := len(l.ev)
	if n > l.head && !l.ev[n-1].precedes(t, seq) {
		panic(ErrFIFOOrder)
	}
	if n == cap(l.ev) && 2*l.head >= n {
		n = copy(l.ev, l.ev[l.head:])
		l.ev, l.head = l.ev[:n], 0
	}
	return &l.ev.grow()[n]
}

// pop removes the head event of a non-empty FIFO list; an emptied list
// starts again at the start of its storage.
func (l *eventList) pop() {
	l.head++
	if l.head == len(l.ev) {
		l.ev, l.head = l.ev[:0], 0
	}
}

// eventHeap is one future-event list: a binary min-heap in (time, seq)
// order.
type eventHeap []event

// grow extends the list by one slot and returns the extended list.
func (h *eventHeap) grow() eventHeap {
	if n := len(*h); n < cap(*h) {
		*h = (*h)[:n+1]
	} else {
		*h = append(*h, event{})
	}
	return *h
}

// push adds a slot for the event (t, seq), sifting it up from the end of
// the heap, and returns it.
func (h *eventHeap) push(t float64, seq uint64) *event {
	q := h.grow()
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].precedes(t, seq) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	return &q[i]
}

// siftDown frees slot i, whose occupant the event (t, seq) replaces, by
// moving the smaller child up while it precedes the event, and returns the
// slot the event belongs in. The event must not precede the events above
// slot i.
func (h eventHeap) siftDown(i int, t float64, seq uint64) *event {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].precedes(t, seq) {
			break
		}
		h[i] = h[c]
		i = c
	}
	return &h[i]
}

// popRoot removes the minimum event. The caller guarantees the heap is
// non-empty.
func (h *eventHeap) popRoot() {
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		*h.siftDown(0, last.time, last.seq) = last
	}
}

// next returns the index of the list whose head is the next event to run,
// or −1 if every list is empty. seq is global, so comparing the heads by
// (time, seq) yields exactly the order one heap over all events would.
func (s *Scheduler) next() int {
	best := -1
	var min *event
	for i := range s.lists {
		l := &s.lists[i]
		if l.head < len(l.ev) {
			if e := &l.ev[l.head]; min == nil || e.before(min) {
				best, min = i, e
			}
		}
	}
	return best
}

// dispatch executes the head event of list li. A FIFO list pops it first.
// A heap keeps it at its root while its handler runs (see schedule) and
// removes it afterwards only if the handler did not reuse the slot.
func (s *Scheduler) dispatch(li int) {
	l := &s.lists[li]
	e := l.ev[l.head]
	s.now = e.time
	s.cur = e.seq + 1
	s.executed++
	if l.fifo {
		l.pop()
		s.handlers[li].HandleEvent(e.op, e.arg)
		return
	}
	s.held = li + 1
	s.handlers[li].HandleEvent(e.op, e.arg)
	if s.held != 0 {
		s.held = 0
		s.lists[li].ev.popRoot()
	}
}

// Step executes the next event and returns true, or returns false if the
// future-event lists are empty. Handlers must not call Step.
func (s *Scheduler) Step() bool {
	li := s.next()
	if li < 0 {
		return false
	}
	s.dispatch(li)
	return true
}

// RunAll executes events until none remain or maxEvents have run in this
// call (0 means no limit). Callers that need to know which stop it was
// compare Executed with the limit.
func (s *Scheduler) RunAll(maxEvents uint64) {
	for n := uint64(0); maxEvents == 0 || n < maxEvents; n++ {
		if !s.Step() {
			return
		}
	}
}
