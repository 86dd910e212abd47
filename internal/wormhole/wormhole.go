// Package wormhole simulates wormhole flow control over a set of directed
// channels: a message ("worm") acquires the channels of its route one by one
// as its header advances, holds everything behind the header while blocked,
// and releases each channel once its tail has crossed it.
//
// # Model
//
// The model matches the assumptions of the paper (§3, assumptions 4–5 and
// its references Draper–Ghosh and Ould-Khaoua):
//
//   - each channel has a single flit buffer and a FIFO arbiter;
//
//   - the header needs one flit time to cross a channel, then requests the
//     next channel of the route; while it waits, every channel already
//     acquired stays held (chained blocking);
//
//   - once the header reaches the route's endpoint, the remaining M−1 flits
//     stream behind it; the tail finishes crossing channel i at
//
//     TC_i = max(TC_{i−1} + ft_i, acq_i + M·ft_i)
//
//     the classic no-overtaking pipeline recurrence (channel i cannot pass M
//     flits in less than M·ft_i, and the tail cannot cross channel i before
//     it has crossed channel i−1). Channel i is released at TC_i and the
//     worm is delivered at TC_{K−1}.
//
// Releases are clamped to the header-arrival instant, which only matters for
// messages shorter than their path — the paper's workloads (M = 32/64 flits
// over ≤ 13 hops) are far from that regime.
//
// # Events
//
// A worm costs one scheduler event per header hop, one for its delivery,
// and one per release that has a worm waiting for the channel. When the
// header arrives, every TC_i is computed at once and each channel records
// its release key (TC_i, seq+i) in positions reserved for the K releases
// and the delivery. A release with no waiter is never scheduled: the next
// request for the channel, or an observer, settles it from the recorded key
// (des.Scheduler.Passed). A request that has to queue schedules the
// release into its reserved position. Events that do run therefore keep the
// (time, seq) keys and order they would have if every release were an
// event, and so does every simulated statistic.
//
// A header hop is the one event scheduled a fixed delay ahead, the hop's
// channel's flit time, so each distinct flit time of a network gets its own
// des lane (Scheduler.RegisterFIFO) and its hops never sift through a heap.
// An organization has few distinct flit times; channels past the first
// maxLanes distinct ones schedule their hops on a heap of their own. Every
// hop, on a lane or on that heap, goes to one hop handler, and its event
// names the channel the header requests next (−1 at the route's end) and
// the worm, so the channel record is loaded beside the worm instead of
// after it. The network's own heap holds only releases and deliveries.
//
// The engine is deliberately topology-agnostic: routes are sequences of
// dense channel indices whose flit times are fixed at construction. The
// multi-cluster simulator lays out all of its networks in one channel table.
package wormhole

import (
	"fmt"
	"math"

	"mcnet/internal/des"
	"mcnet/internal/freelist"
)

// Deliverer receives delivery callbacks without a per-flight closure: a worm
// whose OnDone is nil dispatches to Owner.WormDelivered instead, and Owner is
// pool-lifetime state (it survives Reset), so a pooled worm can be re-flown
// indefinitely with zero per-message allocations.
type Deliverer interface {
	WormDelivered(w *Worm)
}

// Worm is one in-flight message (or message segment). Reuse via Reset.
type Worm struct {
	// ID tags the worm for debugging and deterministic bookkeeping.
	ID uint64
	// Path is the route as channel indices; it must be non-empty and free of
	// duplicates (a worm cannot hold the same channel twice).
	Path []int32
	// Flits is the message length M in flits.
	Flits int
	// OnDone, if non-nil, is invoked exactly once when the tail arrives at
	// the endpoint. The worm may be reused afterwards.
	OnDone func(w *Worm)
	// Owner, if non-nil and OnDone is nil, receives the delivery callback.
	// Owner and Tag are pool-lifetime fields: Reset deliberately leaves them
	// alone so a pooled worm keeps its identity across flights.
	Owner Deliverer
	// Tag is an owner-defined index (e.g. the message-pool slot), preserved
	// across Reset alongside Owner.
	Tag int32

	// InjectedAt, HeaderAt and TailAt record the lifecycle timestamps of the
	// current flight (set by the network).
	InjectedAt float64
	HeaderAt   float64
	TailAt     float64

	slot int32 // index in the network's in-flight table while injected
	// acq holds a grant time per channel acquired so far, so len(acq) is
	// the index in Path of the next channel the header requests.
	acq []float64
}

// Reset prepares a worm for reuse with a new route. Owner and Tag are
// preserved — they identify the pooled message the worm belongs to, not the
// flight.
func (w *Worm) Reset(id uint64, path []int32, flits int, onDone func(w *Worm)) {
	w.ID = id
	w.Path = path
	w.Flits = flits
	w.OnDone = onDone
	w.acq = w.acq[:0]
	w.InjectedAt, w.HeaderAt, w.TailAt = 0, 0, 0
}

// SetAcqBuf hands the worm a caller-owned backing array for its acquisition
// timestamps, so a pool can carve per-worm buffers out of one arena instead
// of letting each worm grow its own. Pass a three-index slice
// (arena[a:a:b]) so an append past the expected capacity reallocates rather
// than bleeding into a neighbor's buffer.
func (w *Worm) SetAcqBuf(buf []float64) { w.acq = buf[:0] }

// SourceWait returns how long the worm waited for its first channel (the
// injection queue wait), or NaN before the first grant.
func (w *Worm) SourceWait() float64 {
	if len(w.acq) == 0 {
		return math.NaN()
	}
	return w.acq[0] - w.InjectedAt
}

// Acquired exposes the grant timestamps of the current flight, one per
// channel the header has acquired so far (len == len(Path) at delivery).
// The returned slice is the worm's internal buffer: treat it as read-only;
// it is valid until the next Reset. Together with the per-channel flit
// times it lets an observer decompose the worm's latency into queueing,
// per-hop blocking and transmission without any per-event instrumentation:
// the wait for channel i+1 is acq[i+1] − (acq[i] + ft_i).
func (w *Worm) Acquired() []float64 { return w.acq }

// fifo is a FIFO of waiting worm slots, threaded intrusively through the
// network's waitNext table: a worm waits for at most one channel at a time,
// so one next-pointer per in-flight slot suffices for every queue in the
// network, and arbitration queues never allocate no matter how deep a burst
// stacks them. Storing pool slots rather than pointers keeps the queues
// GC-transparent.
type fifo struct {
	head, tail int32
	n          int32
	high       int32 // high-water mark of the queue length
}

func (n *Network) qpush(f *fifo, slot int32) {
	if f.n == 0 {
		f.head = slot
	} else {
		n.waitNext[f.tail] = slot
	}
	f.tail = slot
	f.n++
	if f.n > f.high {
		f.high = f.n
	}
}

func (n *Network) qpop(f *fifo) int32 {
	slot := f.head
	f.head = n.waitNext[slot]
	f.n--
	return slot
}

func (f *fifo) len() int { return int(f.n) }

// Release states of a held channel.
const (
	relUnknown   uint8 = iota // the holder's header has not arrived yet
	relKnown                  // relT/relSeq hold the release key; no event is scheduled
	relScheduled              // a release event is scheduled at the key
)

// channel is one directed link, one 64-byte cache line. While busy, rel
// says what is known of the holder's release; relT and relSeq are its key
// once the holder's header has arrived. hop indexes the network's hops with
// the list the header's hop over the channel is scheduled on: its flit
// time's lane, or maxLanes for the hop heap. grants fits 32 bits because
// a route never repeats a channel, so a channel is granted at most once per
// message, and mcsim bounds a run's messages by math.MaxInt32; the queue
// counts are bounded by the worms in flight.
type channel struct {
	flit      float64
	busySince float64
	busyTotal float64
	relT      float64
	relSeq    uint64
	waiting   fifo
	grants    uint32
	busy      bool
	rel       uint8
	hop       uint8
}

// Network owns the channel table and advances worms on a scheduler. hid is
// its heap of releases and deliveries; hops are the hop handler's lists:
// its lanes, in the order their flit times first appear, and at maxLanes
// its heap, registered only if some channel's flit time found no lane.
type Network struct {
	sched *des.Scheduler
	hid   des.HandlerID
	hops  [maxLanes + 1]des.HandlerID
	ch    []channel
	// worms and freeSlots are the in-flight table: every injected worm holds
	// one slot until delivery, so scheduler events can name worms by a dense
	// index and the event heap stays pointer-free. waitNext runs parallel to
	// worms and carries the intrusive FIFO links of the channel queues.
	worms     []*Worm
	waitNext  []int32
	freeSlots []int32
	inFlight  int
	done      uint64
}

// channelTables holds the channel tables of released networks.
var channelTables freelist.List[channel]

// maxLanes bounds the FIFO lanes a network registers for its header hops.
const maxLanes = 8

// New creates a network whose channel i has flit transfer time flitTimes[i].
// The channel table is a released network's when one is large enough.
func New(sched *des.Scheduler, flitTimes []float64) *Network {
	n := &Network{sched: sched, ch: channelTables.Get(len(flitTimes))}
	n.hid = sched.Register(n)
	var laneFlit [maxLanes]float64
	nl, heap := 0, false
	// Channels come in runs of one flit time, so a channel whose time
	// repeats its predecessor's takes the same lane without a search.
	prev, k := 0.0, 0
	for i, ft := range flitTimes {
		if ft <= 0 {
			panic(fmt.Sprintf("wormhole: channel %d has non-positive flit time %v", i, ft))
		}
		if ft != prev {
			k = 0
			for k < nl && laneFlit[k] != ft {
				k++
			}
			if k == nl && nl < maxLanes {
				laneFlit[k], n.hops[k] = ft, sched.RegisterFIFO((*hopHandler)(n))
				nl++
			}
			if k == maxLanes && !heap {
				n.hops[maxLanes], heap = sched.Register((*hopHandler)(n)), true
			}
			prev = ft
		}
		n.ch[i] = channel{flit: ft, hop: uint8(k)}
	}
	return n
}

// Release hands the channel table to the next New and clears the network,
// worms in flight included; the scheduler it runs on is left alone. The
// network must not be used afterwards. The table holds no pointers, so
// nothing it keeps points back into the run.
func (n *Network) Release() {
	channelTables.Put(n.ch)
	*n = Network{}
}

// Channels returns the size of the channel table.
func (n *Network) Channels() int { return len(n.ch) }

// FlitTime returns the flit transfer time of channel c.
func (n *Network) FlitTime(c int32) float64 { return n.ch[c].flit }

// InFlight returns the number of injected but not yet delivered worms.
func (n *Network) InFlight() int { return n.inFlight }

// Delivered counts the worms delivered so far.
func (n *Network) Delivered() uint64 { return n.done }

// released reports whether ch's holder has already let it go at a release
// key no event was scheduled for.
func (n *Network) released(ch *channel) bool {
	return ch.rel == relKnown && n.sched.Passed(ch.relT, ch.relSeq)
}

// Busy reports whether channel c is currently held.
func (n *Network) Busy(c int32) bool {
	ch := &n.ch[c]
	return ch.busy && !n.released(ch)
}

// QueueLen returns the number of worms waiting for channel c.
func (n *Network) QueueLen(c int32) int { return n.ch[c].waiting.len() }

// MaxQueueLen returns the high-water mark of channel c's waiting queue.
func (n *Network) MaxQueueLen(c int32) int { return int(n.ch[c].waiting.high) }

// BusyTime returns the total time channel c has been held in [0, now],
// including the currently open holding interval. Observers aggregate it
// across channels before normalizing by the elapsed time.
func (n *Network) BusyTime(c int32) float64 {
	ch := &n.ch[c]
	if !ch.busy {
		return ch.busyTotal
	}
	if n.released(ch) {
		return ch.busyTotal + (ch.relT - ch.busySince)
	}
	return ch.busyTotal + (n.sched.Now() - ch.busySince)
}

// Grants returns how many times channel c was acquired.
func (n *Network) Grants(c int32) uint64 { return uint64(n.ch[c].grants) }

// Event discriminators of the network's des.Handler. All per-flit traffic is
// dispatched through the scheduler without allocation: the network is the
// handler, op selects the action, and the worm or channel index rides in the
// payload slot. Header hops go to the hop handler instead.
const (
	opRelease int32 = iota // arg = channel: the holder's tail crossed it, grant it to the first waiter
	opDeliver              // arg = worm slot: tail arrived at the endpoint
)

// HandleEvent implements des.Handler.
func (n *Network) HandleEvent(op, arg int32) {
	switch op {
	case opRelease:
		c := &n.ch[arg]
		c.busyTotal += n.sched.Now() - c.busySince
		n.grant(c, n.worms[n.qpop(&c.waiting)])
	case opDeliver:
		w := n.worms[arg]
		n.worms[arg] = nil
		n.freeSlots = append(n.freeSlots, arg)
		n.inFlight--
		n.done++
		if w.OnDone != nil {
			w.OnDone(w)
		} else if w.Owner != nil {
			w.Owner.WormDelivered(w)
		}
	}
}

// Inject starts a worm at the current simulated time. The worm queues on the
// first channel of its route (the injection link), which is how source
// queueing arises naturally in the model.
func (n *Network) Inject(w *Worm) {
	if len(w.Path) == 0 {
		panic("wormhole: empty path")
	}
	if w.Flits <= 0 {
		panic(fmt.Sprintf("wormhole: worm %d has %d flits", w.ID, w.Flits))
	}
	w.acq = w.acq[:0]
	w.InjectedAt = n.sched.Now()
	if k := len(n.freeSlots); k > 0 {
		w.slot = n.freeSlots[k-1]
		n.freeSlots = n.freeSlots[:k-1]
		n.worms[w.slot] = w
	} else {
		w.slot = int32(len(n.worms))
		n.worms = append(n.worms, w)
		n.waitNext = append(n.waitNext, 0)
	}
	n.inFlight++
	n.request(w, w.Path[0])
}

// hopHandler is the network as the handler of its header hops: an event's
// op is the channel the header requests next, or −1 once it has crossed
// the route's last channel, and its arg is the worm's slot.
type hopHandler Network

// HandleEvent implements des.Handler: the header finished crossing a
// channel.
func (h *hopHandler) HandleEvent(next, slot int32) {
	n := (*Network)(h)
	if next < 0 {
		n.complete(n.worms[slot])
		return
	}
	n.request(n.worms[slot], next)
}

// request asks for channel ci on behalf of w, granting immediately when
// idle. A release that went by unscheduled is settled first; a worm that
// has to queue behind a holder whose release key is known schedules that
// release.
func (n *Network) request(w *Worm, ci int32) {
	c := &n.ch[ci]
	if c.busy && n.released(c) {
		c.busy = false
		c.busyTotal += c.relT - c.busySince
	}
	if !c.busy {
		n.grant(c, w)
		return
	}
	n.qpush(&c.waiting, w.slot)
	if c.rel == relKnown {
		c.rel = relScheduled
		n.sched.CallSeq(c.relT, c.relSeq, n.hid, opRelease, ci)
	}
}

// grant hands the channel to the worm and schedules the header's hop, named
// by the channel it requests next.
func (n *Network) grant(c *channel, w *Worm) {
	now := n.sched.Now()
	c.busy = true
	c.rel = relUnknown
	c.busySince = now
	c.grants++
	w.acq = append(w.acq, now)
	next := int32(-1)
	if k := len(w.acq); k < len(w.Path) {
		next = w.Path[k]
	}
	n.sched.Call(now+c.flit, n.hops[c.hop], next, w.slot)
}

// complete runs when the header arrives at the endpoint: it reserves the
// scheduler positions of the len(Path) releases and the delivery, records
// each channel's release key (TC_i, seq+i), schedules the releases that a
// worm is already waiting for, and schedules the delivery at TC_{K−1}.
func (n *Network) complete(w *Worm) {
	w.HeaderAt = n.sched.Now()
	seq := n.sched.Reserve(len(w.Path) + 1)
	tc := 0.0
	for i, ci := range w.Path {
		tc = n.tailCross(w, i, tc)
		c := &n.ch[ci]
		c.relT, c.relSeq, c.rel = tc, seq+uint64(i), relKnown
		if c.waiting.len() > 0 {
			c.rel = relScheduled
			n.sched.CallSeq(tc, c.relSeq, n.hid, opRelease, ci)
		}
	}
	w.TailAt = tc
	n.sched.CallSeq(tc, seq+uint64(len(w.Path)), n.hid, opDeliver, w.slot)
}

// tailCross returns TC_i, the time the tail finishes crossing w.Path[i],
// given TC_{i−1} = prev (ignored for i = 0).
func (n *Network) tailCross(w *Worm, i int, prev float64) float64 {
	ft := n.ch[w.Path[i]].flit
	tc := w.acq[i] + float64(w.Flits)*ft
	if chain := prev + ft; i > 0 && chain > tc {
		tc = chain
	}
	if tc < w.HeaderAt {
		// Short-message clamp: never release before the header has
		// arrived (see the package comment).
		tc = w.HeaderAt
	}
	return tc
}
