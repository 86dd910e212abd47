package wormhole

import (
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"mcnet/internal/des"
	"mcnet/internal/rng"
)

func newNet(fts ...float64) (*des.Scheduler, *Network) {
	sched := &des.Scheduler{}
	return sched, New(sched, fts)
}

// Ops of driver.
const (
	driveInject int32 = iota
	driveObserve
)

// driver is the tests' Handler: an event with op driveInject starts worm arg
// through inject, one with op driveObserve calls observe.
type driver struct {
	s       *des.Scheduler
	h       des.HandlerID
	inject  func(i int32)
	observe func()
}

func newDriver(s *des.Scheduler, inject func(i int32)) *driver {
	d := &driver{s: s, inject: inject}
	d.h = s.Register(d)
	return d
}

func (d *driver) HandleEvent(op, arg int32) {
	if op == driveObserve {
		d.observe()
		return
	}
	d.inject(arg)
}

// injector schedules worms into a Network through a driver.
type injector struct {
	d     *driver
	worms []*Worm
}

func newInjector(sched *des.Scheduler, net *Network) *injector {
	in := &injector{}
	in.d = newDriver(sched, func(i int32) { net.Inject(in.worms[i]) })
	return in
}

// at schedules the injection of w at time t.
func (in *injector) at(t float64, w *Worm) {
	in.d.s.Call(t, in.d.h, driveInject, int32(len(in.worms)))
	in.worms = append(in.worms, w)
}

// TestChannelRecordSize: a channel record fills exactly one 64-byte cache
// line, and a table of eight or more records starts on a line boundary, so
// a request loads one line per channel, never two.
func TestChannelRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(channel{}); got != 64 {
		t.Errorf("channel record is %d bytes, want 64", got)
	}
	for _, channels := range []int{8, 13, 100, 1000} {
		fts := make([]float64, channels)
		for i := range fts {
			fts[i] = 1
		}
		_, n := newNet(fts...)
		if addr := uintptr(unsafe.Pointer(&n.ch[0])); addr%64 != 0 {
			t.Errorf("table of %d channels starts at %#x, off a cache line", channels, addr)
		}
		n.Release()
	}
}

func TestSingleWormUniformPipeline(t *testing.T) {
	// Zero-load latency over K channels of equal flit time is (M+K−1)·ft.
	const ft = 0.5
	const M = 4
	sched, net := newNet(ft, ft, ft)
	w := &Worm{ID: 1, Path: []int32{0, 1, 2}, Flits: M}
	var header, tail float64
	w.OnDone = func(w *Worm) { header, tail = w.HeaderAt, w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if want := 3 * ft; math.Abs(header-want) > 1e-12 {
		t.Errorf("header arrived at %v, want %v", header, want)
	}
	if want := (M + 3 - 1) * ft; math.Abs(tail-want) > 1e-12 {
		t.Errorf("tail arrived at %v, want %v", tail, want)
	}
	if net.InFlight() != 0 {
		t.Errorf("InFlight = %d after delivery", net.InFlight())
	}
}

func TestSingleWormMixedFlitTimes(t *testing.T) {
	// Path with flit times (1, 2), M=3: the slow second channel dominates;
	// the tail leaves it at acq₁ + M·2 = 1 + 6 = 7.
	sched, net := newNet(1, 2)
	w := &Worm{ID: 1, Path: []int32{0, 1}, Flits: 3}
	var tail float64
	w.OnDone = func(w *Worm) { tail = w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if math.Abs(tail-7) > 1e-12 {
		t.Errorf("tail = %v, want 7", tail)
	}
}

func TestSlowUpstreamBoundsTail(t *testing.T) {
	// Flit times (2, 1): the upstream channel feeds flits at rate 1/2, so
	// the tail cannot reach the endpoint before 2·M + 1.
	const M = 5
	sched, net := newNet(2, 1)
	w := &Worm{ID: 1, Path: []int32{0, 1}, Flits: M}
	var tail float64
	w.OnDone = func(w *Worm) { tail = w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if want := 2*float64(M) + 1; math.Abs(tail-want) > 1e-12 {
		t.Errorf("tail = %v, want %v", tail, want)
	}
}

func TestTwoWormsSerializeOnSharedChannel(t *testing.T) {
	// Hand-simulated scenario (see test comment in the history): A injected
	// at 0, B at 0.5, both over channels (0,1) with ft=1, M=2.
	sched, net := newNet(1, 1)
	var tails []float64
	mk := func(id uint64) *Worm {
		return &Worm{ID: id, Path: []int32{0, 1}, Flits: 2,
			OnDone: func(w *Worm) { tails = append(tails, w.TailAt) }}
	}
	in := newInjector(sched, net)
	in.at(0, mk(1))
	in.at(0.5, mk(2))
	sched.RunAll(0)
	if len(tails) != 2 {
		t.Fatalf("delivered %d worms, want 2", len(tails))
	}
	if math.Abs(tails[0]-3) > 1e-12 {
		t.Errorf("A tail = %v, want 3", tails[0])
	}
	if math.Abs(tails[1]-5) > 1e-12 {
		t.Errorf("B tail = %v, want 5 (granted when A releases at 2)", tails[1])
	}
}

func TestFIFOOrderOnInjectionChannel(t *testing.T) {
	sched, net := newNet(1, 1)
	var order []uint64
	in := newInjector(sched, net)
	for i := uint64(1); i <= 5; i++ {
		in.at(0, &Worm{ID: i, Path: []int32{0, 1}, Flits: 3,
			OnDone: func(w *Worm) { order = append(order, w.ID) }})
	}
	sched.RunAll(0)
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("delivery order %v, want FIFO", order)
		}
	}
}

func TestChainedBlockingHoldsUpstreamChannels(t *testing.T) {
	// A holds channel 2 long enough that B (route 1→2) blocks while holding
	// channel 1, which in turn delays C (route 1 only → distinct endpoint is
	// impossible, so give C route (1,3)).
	sched, net := newNet(1, 1, 1, 1)
	var tailB, tailC float64
	a := &Worm{ID: 1, Path: []int32{2}, Flits: 10}
	b := &Worm{ID: 2, Path: []int32{1, 2}, Flits: 2,
		OnDone: func(w *Worm) { tailB = w.TailAt }}
	c := &Worm{ID: 3, Path: []int32{1, 3}, Flits: 2,
		OnDone: func(w *Worm) { tailC = w.TailAt }}
	in := newInjector(sched, net)
	in.at(0, a)    // holds ch2 until t=10
	in.at(0.5, b)  // acquires ch1 at 0.5, blocks on ch2
	in.at(0.75, c) // waits for ch1 behind B
	sched.RunAll(0)
	// B: granted ch2 at t=10, header at 11, tail at max(.., 10+2)=12.
	if math.Abs(tailB-12) > 1e-12 {
		t.Errorf("B tail = %v, want 12", tailB)
	}
	// B releases ch1 at TC_0 = max(acq+2·1, ...) where acq(ch1)=0.5 → the
	// chain: TC_0 clamped by header arrival at 11 → 11. C granted ch1 at 11,
	// header 13, tail 14? C: acq(ch1)=11, hop → 12, acq(ch3)=12, header 13,
	// TC_0 = 11+2=13, TC_1 = max(13+1, 12+2)=14.
	if math.Abs(tailC-14) > 1e-12 {
		t.Errorf("C tail = %v, want 14", tailC)
	}
}

func TestConservationUnderRandomLoad(t *testing.T) {
	// A random conflicting workload must deliver every worm exactly once,
	// leave no channel busy, and keep utilizations within [0,1].
	const channels = 24
	const worms = 2000
	sched := &des.Scheduler{}
	fts := make([]float64, channels)
	src := rng.New(99)
	for i := range fts {
		fts[i] = 0.25 + src.Float64()
	}
	net := New(sched, fts)
	in := newInjector(sched, net)
	delivered := 0
	for i := 0; i < worms; i++ {
		// Random path of 1..6 distinct channels, acquired in increasing
		// index order. Ordered acquisition makes the channel-dependency
		// graph acyclic, exactly like the up-then-down ordering of the real
		// routes; unordered random paths would (correctly) deadlock.
		perm := src.Perm(channels)
		plen := 1 + src.Intn(6)
		path := make([]int32, plen)
		for j := 0; j < plen; j++ {
			path[j] = int32(perm[j])
		}
		sort.Slice(path, func(a, b int) bool { return path[a] < path[b] })
		w := &Worm{ID: uint64(i), Path: path, Flits: 1 + src.Intn(8),
			OnDone: func(w *Worm) {
				delivered++
				if w.TailAt < w.HeaderAt || w.HeaderAt < w.InjectedAt {
					t.Errorf("worm %d: inconsistent times %v/%v/%v", w.ID, w.InjectedAt, w.HeaderAt, w.TailAt)
				}
			}}
		in.at(src.Float64()*500, w)
	}
	sched.RunAll(0)
	if delivered != worms {
		t.Fatalf("delivered %d/%d", delivered, worms)
	}
	if net.InFlight() != 0 || net.Delivered() != worms {
		t.Errorf("lifecycle counters: inflight=%d delivered=%d", net.InFlight(), net.Delivered())
	}
	for c := 0; c < channels; c++ {
		if net.Busy(int32(c)) {
			t.Errorf("channel %d still busy after drain", c)
		}
		if net.QueueLen(int32(c)) != 0 {
			t.Errorf("channel %d still has waiters", c)
		}
		if b := net.BusyTime(int32(c)); b < 0 || b > sched.Now() {
			t.Errorf("channel %d busy time %v outside [0, %v]", c, b, sched.Now())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		sched := &des.Scheduler{}
		net := New(sched, []float64{1, 1, 1, 1, 1, 1})
		in := newInjector(sched, net)
		src := rng.New(7)
		var tails []float64
		for i := 0; i < 500; i++ {
			a, b := int32(src.Intn(6)), int32(src.Intn(6))
			if a == b {
				continue
			}
			w := &Worm{ID: uint64(i), Path: []int32{a, b}, Flits: 4,
				OnDone: func(w *Worm) { tails = append(tails, w.TailAt) }}
			in.at(src.Float64()*200, w)
		}
		sched.RunAll(0)
		return tails
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUtilizationSingleWorm(t *testing.T) {
	sched, net := newNet(1, 1)
	w := &Worm{ID: 1, Path: []int32{0, 1}, Flits: 4}
	net.Inject(w)
	sched.RunAll(0)
	// ch0 held [0, 4] (M·ft), ch1 held [1, 5]; now = 5.
	if now := sched.Now(); now != 5 {
		t.Errorf("now = %v, want 5", now)
	}
	if b := net.BusyTime(0); math.Abs(b-4) > 1e-12 {
		t.Errorf("ch0 busy time = %v, want 4", b)
	}
	if b := net.BusyTime(1); math.Abs(b-4) > 1e-12 {
		t.Errorf("ch1 busy time = %v, want 4", b)
	}
	if g := net.Grants(0); g != 1 {
		t.Errorf("ch0 grants = %d, want 1", g)
	}
}

func TestShortMessageClampNeverReleasesBeforeHeader(t *testing.T) {
	// M=1 over long paths: the first channel's own drain time precedes the
	// header's arrival, so its release is clamped to the header instant,
	// and every later channel's unclamped drain time precedes it too — the
	// recurrence must carry the clamped value forward along the chain.
	for _, tc := range []struct {
		name     string
		flits    []float64
		header   float64
		releases []float64 // per channel of the path, in order
	}{
		{"uniform", []float64{1, 1, 1, 1, 1, 1, 1, 1}, 8, []float64{8, 9, 10, 11, 12, 13, 14, 15}},
		{"mixed", []float64{1, 0.5, 2, 0.25, 1}, 4.75, []float64{4.75, 5.25, 7.25, 7.5, 8.5}},
	} {
		sched, net := newNet(tc.flits...)
		path := make([]int32, len(tc.flits))
		for i := range path {
			path[i] = int32(i)
		}
		w := &Worm{ID: 1, Path: path, Flits: 1}
		var header, tail float64
		w.OnDone = func(w *Worm) { header, tail = w.HeaderAt, w.TailAt }
		net.Inject(w)
		sched.RunAll(0)
		// One worm holds each channel once, from its grant to its release.
		releases := make([]float64, len(path))
		for i, c := range path {
			releases[i] = w.Acquired()[i] + net.BusyTime(c)
		}
		if header != tc.header || tail != tc.releases[len(path)-1] {
			t.Errorf("%s: header %v, tail %v; want %v, %v", tc.name, header, tail, tc.header, tc.releases[len(path)-1])
		}
		for i, r := range releases {
			if r != tc.releases[i] || r < header {
				t.Errorf("%s: releases %v, want %v (none before the header at %v)", tc.name, releases, tc.releases, tc.header)
				break
			}
		}
		for c := range path {
			if net.Busy(int32(c)) {
				t.Errorf("%s: channel %d left busy", tc.name, c)
			}
		}
	}
}

func TestMaxQueueLenHighWater(t *testing.T) {
	// Queue three worms behind a long-running holder: the high-water mark
	// must reach 3 and survive the queue draining.
	sched, net := newNet(1, 1)
	in := newInjector(sched, net)
	in.at(0, &Worm{ID: 1, Path: []int32{0}, Flits: 50})
	for i := uint64(2); i <= 4; i++ {
		in.at(float64(i), &Worm{ID: i, Path: []int32{0, 1}, Flits: 1})
	}
	sched.RunAll(0)
	if got := net.MaxQueueLen(0); got != 3 {
		t.Errorf("high-water mark = %d, want 3", got)
	}
	if got := net.QueueLen(0); got != 0 {
		t.Errorf("final queue length = %d, want 0", got)
	}
}

func TestSourceWaitAccessor(t *testing.T) {
	sched, net := newNet(1)
	blocker := &Worm{ID: 1, Path: []int32{0}, Flits: 5}
	waiter := &Worm{ID: 2, Path: []int32{0}, Flits: 1}
	if !math.IsNaN(waiter.SourceWait()) {
		t.Error("SourceWait before injection should be NaN")
	}
	in := newInjector(sched, net)
	in.at(0, blocker)
	in.at(1, waiter)
	sched.RunAll(0)
	// Blocker holds channel 0 for 5 units; waiter injected at 1 → waits 4.
	if got := waiter.SourceWait(); math.Abs(got-4) > 1e-12 {
		t.Errorf("SourceWait = %v, want 4", got)
	}
	if got := blocker.SourceWait(); got != 0 {
		t.Errorf("unblocked worm's SourceWait = %v, want 0", got)
	}
}

func TestWormReset(t *testing.T) {
	sched, net := newNet(1, 1)
	w := &Worm{}
	count := 0
	done := func(*Worm) { count++ }
	w.Reset(1, []int32{0}, 2, done)
	net.Inject(w)
	sched.RunAll(0)
	w.Reset(2, []int32{1}, 2, done)
	net.Inject(w)
	sched.RunAll(0)
	if count != 2 {
		t.Errorf("reused worm delivered %d times, want 2", count)
	}
	if w.ID != 2 {
		t.Errorf("ID after reset = %d, want 2", w.ID)
	}
}

func TestInjectPanics(t *testing.T) {
	_, net := newNet(1)
	for name, w := range map[string]*Worm{
		"empty path": {ID: 1, Flits: 1},
		"zero flits": {ID: 1, Path: []int32{0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			net.Inject(w)
		}()
	}
}

func TestNewPanicsOnBadFlitTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive flit time accepted")
		}
	}()
	New(&des.Scheduler{}, []float64{1, 0})
}

func BenchmarkThousandWorms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := &des.Scheduler{}
		net := New(sched, []float64{1, 1, 1, 1, 1, 1, 1, 1})
		in := newInjector(sched, net)
		src := rng.New(3)
		for j := 0; j < 1000; j++ {
			a, c := int32(src.Intn(8)), int32(src.Intn(8))
			if a == c {
				continue
			}
			in.at(src.Float64()*1000, &Worm{ID: uint64(j), Path: []int32{a, c}, Flits: 32})
		}
		sched.RunAll(0)
	}
}

// TestReleaseTiesWithHeaderRequest pins arbitration when a release and
// header requests for the same channel fall at the same instant. Channel 0
// is shared; A holds it, C is queued on it, and at the instant A's tail
// leaves it two more headers request it: B's, scheduled before A's header
// arrived and so before A's releases were laid out, and D's, scheduled
// after. Equal times run in scheduling order, so B queues ahead of A's
// release and delivery and D behind them: the grants go A, C, B, D, and at
// A's delivery exactly B is waiting. The run dispatches 19 events: four
// injections, eight header hops, four deliveries and the three releases of
// channel 0 that a worm waits for; the injection links' releases and D's
// are never scheduled.
func TestReleaseTiesWithHeaderRequest(t *testing.T) {
	// Channels: 0 shared; 1..4 the injection links of A, B, C, D.
	sched, net := newNet(1, 1, 3.5, 1, 1)
	var order []rune
	var queued []int
	done := func(w *Worm) {
		order = append(order, rune(w.ID))
		queued = append(queued, net.QueueLen(0))
	}
	a := &Worm{ID: 'A', Path: []int32{1, 0}, Flits: 4, OnDone: done}
	b := &Worm{ID: 'B', Path: []int32{2, 0}, Flits: 2, OnDone: done}
	c := &Worm{ID: 'C', Path: []int32{3, 0}, Flits: 2, OnDone: done}
	d := &Worm{ID: 'D', Path: []int32{4, 0}, Flits: 2, OnDone: done}
	in := newInjector(sched, net)
	in.at(0, a)
	in.at(1, c)
	in.at(1.5, b)
	in.at(4, d)
	sched.RunAll(0)
	if string(order) != "ACBD" {
		t.Errorf("delivery order %q, want ACBD", string(order))
	}
	if want := []int{1, 1, 0, 0}; !slices.Equal(queued, want) {
		t.Errorf("channel 0 queue at each delivery = %v, want %v", queued, want)
	}
	for _, tc := range []struct {
		w    *Worm
		acq  []float64
		tail float64
	}{
		{a, []float64{0, 1}, 5},
		{c, []float64{1, 5}, 7},
		{b, []float64{1.5, 7}, 9.5},
		{d, []float64{4, 9.5}, 11.5},
	} {
		if !slices.Equal(tc.w.Acquired(), tc.acq) || tc.w.TailAt != tc.tail {
			t.Errorf("worm %c: acquired %v, tail %v; want %v, %v", rune(tc.w.ID), tc.w.Acquired(), tc.w.TailAt, tc.acq, tc.tail)
		}
	}
	if got := net.MaxQueueLen(0); got != 2 {
		t.Errorf("channel 0 high-water mark = %d, want 2", got)
	}
	if got := sched.Executed(); got != 19 {
		t.Errorf("Executed = %d, want 19", got)
	}
}
