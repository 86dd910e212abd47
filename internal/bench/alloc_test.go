package bench

import (
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/des"
	"mcnet/internal/mcsim"
	"mcnet/internal/rng"
	"mcnet/internal/sweep"
	"mcnet/internal/workload"
	"mcnet/internal/wormhole"
)

// Allocation gates: the hot paths below were made (near-)allocation-free by
// the pooling work — the DES Call/Register path and the wormhole
// grant/advance/release cycle run steady-state with zero allocations, and a
// whole mcsim run costs a fixed setup-time budget regardless of message
// count (worm paths, acquisition buffers, arrival processes and messages all
// come from slab pools). A released run's organization-sized arrays back the
// next run, so that budget is mostly small allocations; TestAllocsMcsimBytes
// pins their bytes. These tests pin both properties with
// testing.AllocsPerRun and runtime.MemStats, so a regression fails `go test
// ./...` rather than waiting for someone to read benchmark output. Budgets
// are hard ceilings with headroom over the measured values (see README
// "Performance"); they are not targets to grow into. Garbage collection is
// off while a gate measures: a cycle that lands inside a run moves a few
// runtime allocations into it, which made the counts vary by up to four
// between runs.
func gate(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instruments allocations; gate runs in the non-race CI lane")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(3, f)
	if got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.0f", name, got, budget)
	}
}

// TestAllocsDESCall pins the scheduler's Register/Call path at zero
// steady-state allocations: self-rescheduling handlers churn the event heap
// without ever touching it structurally once warmed.
func TestAllocsDESCall(t *testing.T) {
	var s des.Scheduler
	c := &callHandler{s: &s, src: rng.New(1)}
	c.h = s.Register(c)
	for i := int32(0); i < 64; i++ {
		s.Call(c.src.Float64(), c.h, 0, i)
	}
	s.RunAll(10000) // warm the heap to steady-state capacity
	gate(t, "des-call", 0, func() { s.RunAll(50000) })
}

// TestAllocsWormholeLine pins the wormhole grant/advance/release cycle —
// including the channel arbiters' intrusive wait queues — at zero
// steady-state allocations under sustained contention.
func TestAllocsWormholeLine(t *testing.T) {
	const hops = 8
	var s des.Scheduler
	flits := make([]float64, hops)
	for i := range flits {
		flits[i] = 1
	}
	net := wormhole.New(&s, flits)
	path := make([]int32, hops)
	for i := range path {
		path[i] = int32(i)
	}
	var id uint64
	var inject func(w *wormhole.Worm)
	inject = func(w *wormhole.Worm) {
		id++
		w.Reset(id, path, 16, inject)
		net.Inject(w)
	}
	for i := 0; i < 4; i++ {
		inject(&wormhole.Worm{})
	}
	s.RunAll(10000)
	gate(t, "wormhole-line", 0, func() { s.RunAll(50000) })
}

// TestAllocsMcsimOrg1 bounds a full Org1 simulation run (Poisson arrivals,
// fixed M). Everything here is setup: system expansion, channel tables, the
// first message-pool slab. The per-message path contributes nothing, so the
// budget does not scale with Measure.
func TestAllocsMcsimOrg1(t *testing.T) {
	cfg := benchConfig(4000)
	gate(t, "mcsim-org1", 150, func() {
		if _, err := mcsim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsMcsimBytes bounds the bytes, not the count, of an Org1 run that
// follows another one of the same configuration. mcsim.Run releases its
// simulation, so the second run draws the channel table, the event lists,
// the message slabs, the per-node arrays, the MMPP per-node arena and the
// telemetry tier map from the free lists the first run filled: a plain run
// allocates ~16 KB where one built from scratch allocates ~1.45 MB. The
// telemetry-on case is the configuration every served job runs; the MMPP
// case is half of the benchmark's sweep grid. Each stays within 24 KiB of
// the plain run, which the ~75 KB MMPP arena or the ~11 KB tier map would
// break if it were allocated afresh.
func TestAllocsMcsimBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; gate runs in the non-race CI lane")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in gate
	telemetry, mmpp := benchConfig(4000), benchConfig(4000)
	telemetry.Telemetry = &mcsim.TelemetryConfig{}
	mmpp.Arrival = workload.MMPP{Peak: 8, Burst: 16}
	var plain uint64
	for _, c := range []struct {
		name string
		cfg  mcsim.Config
	}{{"org1", benchConfig(4000)}, {"telemetry", telemetry}, {"mmpp", mmpp}} {
		run := func() {
			if _, err := mcsim.Run(c.cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got, budget := after.TotalAlloc-before.TotalAlloc, uint64(128<<10)
		if plain == 0 {
			plain = got
		} else {
			budget = min(budget, plain+24<<10)
		}
		if got > budget {
			t.Errorf("mcsim-%s after a released run: %d B allocated, budget %d B", c.name, got, budget)
		}
	}
}

// TestAllocsMcsimJellyfish bounds a run whose ICN1s are the random-regular
// plugin: routes are copied out of the topology's frozen path arena, so the
// per-message path stays allocation-free and the whole run fits the same
// fixed setup budget as the fat-tree configuration.
func TestAllocsMcsimJellyfish(t *testing.T) {
	cfg := benchTopoConfig(4000, "jellyfish")
	gate(t, "mcsim-jellyfish", 150, func() {
		if _, err := mcsim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsMcsimTelemetry pins the telemetry collector's contract: all of
// its memory (tier tables, histograms, the series ring) is carved out at
// setup, so the per-event sampling and per-delivery decomposition paths add
// zero steady-state allocations. Doubling Measure must not move the
// allocation count (beyond runtime noise); the absolute budget is the
// plain-run budget plus a fixed collector-setup allowance.
func TestAllocsMcsimTelemetry(t *testing.T) {
	run := func(measure int) float64 {
		cfg := benchConfig(measure)
		cfg.Telemetry = &mcsim.TelemetryConfig{}
		return testing.AllocsPerRun(3, func() {
			if _, err := mcsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if raceEnabled {
		t.Skip("race detector instruments allocations; gate runs in the non-race CI lane")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in gate
	small, large := run(4000), run(8000)
	// Equality up to scheduling noise: a per-message or per-sample leak
	// would show up as thousands of allocs at double the Measure, not ±2.
	if large > small+2 {
		t.Errorf("telemetry steady state allocates: %.1f allocs at measure=4000 vs %.1f at 8000", small, large)
	}
	if budget := 170.0; small > budget {
		t.Errorf("telemetry-on run: %.1f allocs, budget %.0f", small, budget)
	}
}

// TestAllocsMcsimBursty bounds the bursty fast path: MMPP arrivals and a
// bimodal length mix on the same organization. Variable-M worms draw their
// path and acquisition buffers from the pooled slabs, and the MMPP per-node
// state comes from one arena, so the budget stays within 2× of the fixed-M
// run — the tentpole target — instead of the ~8× it was when every worm
// allocated its own buffers.
func TestAllocsMcsimBursty(t *testing.T) {
	cfg := benchConfig(4000)
	cfg.Arrival = workload.MMPP{Peak: 16, Burst: 32}
	cfg.Sizes = workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}
	gate(t, "mcsim-bursty", 300, func() {
		if _, err := mcsim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsSweepRows pins the per-row cost of a warm sweep pass that
// encoding/json's reflection used to dominate: JSONLSink.Write encodes a
// row into a reused buffer with zero allocations once the buffer has grown.
func TestAllocsSweepRows(t *testing.T) {
	jobs, err := sweep.Expand(benchGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.Result, len(jobs))
	for i, j := range jobs {
		rows[i] = sweep.Result{Job: j, Analysis: sweep.Float(20 + float64(i)/3), Outcome: sweep.Outcome{
			SimLatency: sweep.Float(21 + float64(i)/7), SimSourceWait: 0.125, SimPOut: 0.75, Delivered: j.Measure,
		}}
	}
	rows[0].Analysis = sweep.Float(math.NaN())
	sink := sweep.NewJSONLSink(io.Discard)
	writeAll := func() {
		for _, r := range rows {
			if err := sink.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeAll() // grows the row buffer
	gate(t, "jsonl-rows", 0, writeAll)
}

// TestAllocsDirCacheGet pins the per-job cost of a warm sweep pass over a
// disk cache: DirCache.Get reads and decodes a telemetry-off entry with two
// allocations, the entry's path and its NUL-terminated copy for the open
// system call, and so with at most their bytes rounded up to the
// allocator's size classes. An *os.File, and its two structs, would add
// about 100 B and two allocations more.
func TestAllocsDirCacheGet(t *testing.T) {
	cache, keys := filledDirCache(t)
	get := func() {
		if _, ok := cache.Get(keys[0]); !ok {
			t.Fatal("entry missing")
		}
	}
	gate(t, "dircache-get", 2, get)

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in gate
	const gets = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	path := len(filepath.Join(cache.Dir(), keys[0]+".json"))
	got, budget := (after.TotalAlloc-before.TotalAlloc)/gets, uint64(2*(path+1)+64)
	if got > budget {
		t.Errorf("dircache-get: %d B per hit, budget %d B for a %d-byte path", got, budget, path)
	}
}

// TestAllocsSaturationProbe pins a saturation search on a warmed grid, and
// so each of its probes, at zero allocations: a probe writes its
// per-cluster results into the grid's scratch, and the memo tables have
// grown to the model's class counts.
func TestAllocsSaturationProbe(t *testing.T) {
	for _, m := range sweepGridModels(t) {
		g := analytic.NewGrid(m)
		g.SaturationPoint(1e-6, 1, 1e-3)
		gate(t, "saturation-search", 0, func() { g.SaturationPoint(1e-6, 1, 1e-3) })
	}
}
