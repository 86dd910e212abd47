package wormhole

import (
	"slices"
	"testing"

	"mcnet/internal/des"
	"mcnet/internal/rng"
)

// eagerNet is the reference for FuzzReleaseOrder: the same wormhole model
// with every channel release scheduled as an event. When a worm's header
// arrives it reserves the same len(Path)+1 sequence positions as Network and
// schedules all of its releases and its delivery into them, so both engines
// assign every event they share the same (time, seq) key.
type eagerNet struct {
	s     *des.Scheduler
	h     des.HandlerID
	ch    []eagerChan
	worms []*eagerWorm
}

type eagerChan struct {
	flit         float64
	busy         bool
	queue        []int32
	since, total float64
	grants       uint64
	high         int
}

type eagerWorm struct {
	id               uint64
	path             []int32
	flits, pos       int
	acq              []float64
	headerAt, tailAt float64
	onDone           func(*eagerWorm)
}

// Ops of eagerNet: a header hop and a delivery name the worm in arg; op
// eagerRelease+i releases the worm's i-th channel.
const (
	eagerHeader int32 = iota
	eagerDeliver
	eagerRelease
)

func newEagerNet(s *des.Scheduler, fts []float64) *eagerNet {
	n := &eagerNet{s: s, ch: make([]eagerChan, len(fts))}
	n.h = s.Register(n)
	for i, ft := range fts {
		n.ch[i].flit = ft
	}
	return n
}

func (n *eagerNet) inject(w *eagerWorm) {
	n.worms = append(n.worms, w)
	n.request(int32(len(n.worms) - 1))
}

func (n *eagerNet) request(wi int32) {
	w := n.worms[wi]
	c := &n.ch[w.path[w.pos]]
	if !c.busy {
		n.grant(c, wi)
		return
	}
	c.queue = append(c.queue, wi)
	c.high = max(c.high, len(c.queue))
}

func (n *eagerNet) grant(c *eagerChan, wi int32) {
	now := n.s.Now()
	c.busy, c.since = true, now
	c.grants++
	n.worms[wi].acq = append(n.worms[wi].acq, now)
	n.s.Call(now+c.flit, n.h, eagerHeader, wi)
}

func (n *eagerNet) HandleEvent(op, arg int32) {
	w := n.worms[arg]
	switch {
	case op == eagerHeader:
		w.pos++
		if w.pos < len(w.path) {
			n.request(arg)
			return
		}
		w.headerAt = n.s.Now()
		seq := n.s.Reserve(len(w.path) + 1)
		tc := 0.0
		for i, ci := range w.path {
			ft := n.ch[ci].flit
			next := w.acq[i] + float64(w.flits)*ft
			if i > 0 && tc+ft > next {
				next = tc + ft
			}
			tc = max(next, w.headerAt)
			n.s.CallSeq(tc, seq+uint64(i), n.h, eagerRelease+int32(i), arg)
		}
		w.tailAt = tc
		n.s.CallSeq(tc, seq+uint64(len(w.path)), n.h, eagerDeliver, arg)
	case op == eagerDeliver:
		w.onDone(w)
	default:
		c := &n.ch[w.path[op-eagerRelease]]
		c.busy = false
		c.total += n.s.Now() - c.since
		if len(c.queue) > 0 {
			next := c.queue[0]
			c.queue = c.queue[1:]
			n.grant(c, next)
		}
	}
}

func (n *eagerNet) busyTime(c int) float64 {
	if n.ch[c].busy {
		return n.ch[c].total + (n.s.Now() - n.ch[c].since)
	}
	return n.ch[c].total
}

// chanView is one channel's observable state.
type chanView struct {
	busy            bool
	queue, maxQueue int
	busyTime        float64
	grants          uint64
}

// releaseCase is a decoded FuzzReleaseOrder input.
type releaseCase struct {
	flits []float64
	worms []struct {
		path  []int32
		flits int
		at    float64
	}
	// observeAt are the times of the observation events scheduled up
	// front; each observation also schedules a follow-up observeAfter
	// later while any remain, so observations interleave with the
	// engine's events at every sequence position.
	observeAt    []float64
	observeAfter []float64
}

// Choices the decoder draws from: binary fractions, so equal times are
// common and exact.
var (
	releaseFlitTimes = [...]float64{0.5, 1, 1, 1.5, 2}
	releaseGaps      = [...]float64{0, 0, 0.5, 1, 1.5, 2, 4}
)

func decodeReleaseCase(data []byte) releaseCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var rc releaseCase
	channels := 2 + next()%4
	for i := 0; i < channels; i++ {
		rc.flits = append(rc.flits, releaseFlitTimes[next()%len(releaseFlitTimes)])
	}
	worms := 1 + next()%24
	for i := 0; i < worms; i++ {
		mask := next() % (1 << channels)
		if mask == 0 {
			mask = 1 << (i % channels)
		}
		var path []int32
		// Ascending channel order keeps the dependency graph acyclic.
		for c := 0; c < channels; c++ {
			if mask&(1<<c) != 0 {
				path = append(path, int32(c))
			}
		}
		flits := 1 + next()%8
		// Injection times fall on a coarse grid, forcing ties with each
		// other and with the engine's events.
		at := float64(next()%12) * 0.5
		rc.worms = append(rc.worms, struct {
			path  []int32
			flits int
			at    float64
		}{path, flits, at})
	}
	for i := 0; i < 3; i++ {
		rc.observeAt = append(rc.observeAt, float64(next()%16)*0.5)
	}
	for i := 0; i < 16; i++ {
		rc.observeAfter = append(rc.observeAfter, releaseGaps[next()%len(releaseGaps)])
	}
	return rc
}

// releaseRun is what one engine did on a releaseCase: the delivery order,
// each worm's grant times, header and tail arrivals, the channel state at
// every observation and at the end, and the final clock.
type releaseRun struct {
	delivered []uint64
	acq       [][]float64
	header    []float64
	tail      []float64
	observed  [][]chanView
	final     []chanView
	now       float64
}

// drive schedules the case's injections and observations on s, runs it to
// completion and records the channel views and the final clock in run.
// inject starts worm i; view reads channel c.
func (rc releaseCase) drive(s *des.Scheduler, run *releaseRun, inject func(i int), view func(c int) chanView) {
	d := newDriver(s, func(i int32) { inject(int(i)) })
	for i, w := range rc.worms {
		s.Call(w.at, d.h, driveInject, int32(i))
	}
	views := func() []chanView {
		v := make([]chanView, len(rc.flits))
		for c := range v {
			v[c] = view(c)
		}
		return v
	}
	left := rc.observeAfter
	d.observe = func() {
		run.observed = append(run.observed, views())
		if len(left) > 0 {
			s.CallAfter(left[0], d.h, driveObserve, 0)
			left = left[1:]
		}
	}
	for _, t := range rc.observeAt {
		s.Call(t, d.h, driveObserve, 0)
	}
	s.RunAll(0)
	run.final = views()
	run.now = s.Now()
}

// runLazy runs the case on Network.
func (rc releaseCase) runLazy() releaseRun {
	s := &des.Scheduler{}
	n := New(s, rc.flits)
	var run releaseRun
	worms := make([]*Worm, len(rc.worms))
	for i, spec := range rc.worms {
		worms[i] = &Worm{ID: uint64(i), Path: spec.path, Flits: spec.flits,
			OnDone: func(w *Worm) { run.delivered = append(run.delivered, w.ID) }}
	}
	rc.drive(s, &run, func(i int) { n.Inject(worms[i]) }, func(c int) chanView {
		ci := int32(c)
		return chanView{n.Busy(ci), n.QueueLen(ci), n.MaxQueueLen(ci), n.BusyTime(ci), n.Grants(ci)}
	})
	for _, w := range worms {
		run.acq = append(run.acq, w.Acquired())
		run.header = append(run.header, w.HeaderAt)
		run.tail = append(run.tail, w.TailAt)
	}
	return run
}

// runEager runs the case on the eagerNet reference.
func (rc releaseCase) runEager() releaseRun {
	s := &des.Scheduler{}
	n := newEagerNet(s, rc.flits)
	var run releaseRun
	worms := make([]*eagerWorm, len(rc.worms))
	for i, spec := range rc.worms {
		worms[i] = &eagerWorm{id: uint64(i), path: spec.path, flits: spec.flits,
			onDone: func(w *eagerWorm) { run.delivered = append(run.delivered, w.id) }}
	}
	rc.drive(s, &run, func(i int) { n.inject(worms[i]) }, func(c int) chanView {
		ch := &n.ch[c]
		return chanView{ch.busy, len(ch.queue), ch.high, n.busyTime(c), ch.grants}
	})
	for _, w := range worms {
		run.acq = append(run.acq, w.acq)
		run.header = append(run.header, w.headerAt)
		run.tail = append(run.tail, w.tailAt)
	}
	return run
}

func checkReleaseOrder(t *testing.T, data []byte) {
	checkReleaseCase(t, decodeReleaseCase(data))
}

// checkReleaseCase runs rc on Network and on eagerNet and compares
// everything either engine shows.
func checkReleaseCase(t *testing.T, rc releaseCase) {
	t.Helper()
	got, want := rc.runLazy(), rc.runEager()
	if !slices.Equal(got.delivered, want.delivered) {
		t.Fatalf("delivery order %v, reference %v", got.delivered, want.delivered)
	}
	if len(got.delivered) != len(rc.worms) {
		t.Fatalf("delivered %d of %d worms", len(got.delivered), len(rc.worms))
	}
	for i := range rc.worms {
		if !slices.Equal(got.acq[i], want.acq[i]) || got.header[i] != want.header[i] || got.tail[i] != want.tail[i] {
			t.Fatalf("worm %d: acquired %v, header %v, tail %v; reference %v, %v, %v",
				i, got.acq[i], got.header[i], got.tail[i], want.acq[i], want.header[i], want.tail[i])
		}
	}
	if len(got.observed) != len(want.observed) {
		t.Fatalf("%d observations, reference %d", len(got.observed), len(want.observed))
	}
	for k := range got.observed {
		if !slices.Equal(got.observed[k], want.observed[k]) {
			t.Fatalf("observation %d: channels %+v, reference %+v", k, got.observed[k], want.observed[k])
		}
	}
	if !slices.Equal(got.final, want.final) || got.now != want.now {
		t.Fatalf("final channels %+v at %v, reference %+v at %v", got.final, got.now, want.final, want.now)
	}
}

// FuzzReleaseOrder checks Network, which schedules a channel release only
// when a worm waits for the channel, against eagerNet, which schedules
// every release: random worms over a few shared channels with tied
// injection times must get the same grants, tails and delivery order, and
// every channel's state must agree at observation events interleaved with
// the run and at its end.
func FuzzReleaseOrder(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 3, 1, 0, 2, 3, 0, 0})
	f.Add([]byte{3, 0, 2, 4, 1, 20, 15, 0, 0, 15, 0, 2, 9, 3, 0, 7, 1, 1, 5, 4, 8, 0, 1, 2, 3, 4, 5, 6})
	src := rng.New(11)
	for k := 0; k < 4; k++ {
		data := make([]byte, 40+30*k)
		for i := range data {
			data[i] = byte(src.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(checkReleaseOrder)
}

// TestReleaseOrderPastLaneCap checks Network against eagerNet on networks
// with more distinct flit times than it has lanes, so the hops over the
// channels past the cap go through the hop handler's heap beside the lanes'
// FIFOs, never through the network's heap of releases and deliveries. The
// decoder's flit times have too few distinct values to get there.
func TestReleaseOrderPastLaneCap(t *testing.T) {
	src := rng.New(3)
	for k := 0; k < 50; k++ {
		var rc releaseCase
		channels := maxLanes + 1 + k%4
		for c := 0; c < channels; c++ {
			// Distinct binary fractions, so hop times tie exactly.
			rc.flits = append(rc.flits, 0.5*float64(1+(c+k)%channels))
		}
		for i := 0; i < 4+int(src.Uint64()%20); i++ {
			var path []int32
			for c := 0; c < channels; c++ {
				if src.Uint64()%3 == 0 {
					path = append(path, int32(c))
				}
			}
			if len(path) == 0 {
				path = append(path, int32(i%channels))
			}
			rc.worms = append(rc.worms, struct {
				path  []int32
				flits int
				at    float64
			}{path, 1 + int(src.Uint64()%8), 0.5 * float64(src.Uint64()%12)})
		}
		for i := 0; i < 3; i++ {
			rc.observeAt = append(rc.observeAt, 0.5*float64(src.Uint64()%16))
		}
		for i := 0; i < 16; i++ {
			rc.observeAfter = append(rc.observeAfter, releaseGaps[src.Uint64()%uint64(len(releaseGaps))])
		}
		checkReleaseCase(t, rc)
	}
	var s des.Scheduler
	fts := make([]float64, maxLanes+2)
	for i := range fts {
		fts[i] = float64(i + 1)
	}
	n := New(&s, fts)
	heap := n.hops[maxLanes]
	if slices.Contains(n.hops[:maxLanes], heap) || heap == n.hid {
		t.Fatalf("hop heap %d shares an ID with a lane %v or the network's heap %d", heap, n.hops[:maxLanes], n.hid)
	}
	for i := range fts {
		hop := n.hops[n.ch[i].hop]
		if hop == n.hid {
			t.Errorf("channel %d (flit time %v): hop on the network's release/delivery heap", i, fts[i])
		}
		if onHeap := hop == heap; onHeap != (i >= maxLanes) {
			t.Errorf("channel %d (flit time %v): hop on the hop heap = %v", i, fts[i], onHeap)
		}
	}
}
