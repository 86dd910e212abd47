package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mcnet/internal/analytic"
	"mcnet/internal/des"
	"mcnet/internal/mcsim"
	"mcnet/internal/rng"
	"mcnet/internal/serve"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
	"mcnet/internal/wormhole"
)

// callHandler is a self-rescheduling handler.
type callHandler struct {
	s   *des.Scheduler
	h   des.HandlerID
	src *rng.Source
}

func (c *callHandler) HandleEvent(op, arg int32) {
	c.s.Call(c.s.Now()+c.src.Exp(1), c.h, op, arg)
}

// BenchmarkDESCall measures raw future-event-list churn: a pool of
// self-rescheduling timers, the dominant access pattern of the simulator
// (every executed event schedules roughly one successor).
func BenchmarkDESCall(b *testing.B) {
	const timers = 256
	b.ReportAllocs()
	var s des.Scheduler
	c := &callHandler{s: &s, src: rng.New(1)}
	c.h = s.Register(c)
	for i := int32(0); i < timers; i++ {
		s.Call(c.src.Float64(), c.h, 0, i)
	}
	b.ResetTimer()
	s.RunAll(uint64(b.N))
}

// BenchmarkWormholeLine streams worms down an 8-hop line with enough
// injection pressure to keep every channel contended, exercising the
// grant/advance/release cycle and the FIFO arbiter. One op is one delivered
// worm, so ns/op stays comparable when the engine changes how many
// scheduler events a worm costs; events/worm reports that count.
func BenchmarkWormholeLine(b *testing.B) {
	const hops = 8
	b.ReportAllocs()
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
	b.ResetTimer()
	for net.Delivered() < uint64(b.N) && s.Step() {
	}
	b.ReportMetric(float64(s.Executed())/float64(b.N), "events/worm")
}

// benchConfig is one mid-load point of the paper's first organization
// (N=1120 nodes), the simulator's production workload shape.
func benchConfig(measure int) mcsim.Config {
	return mcsim.Config{
		Org:     system.Table1Org1(),
		Par:     units.Default(),
		LambdaG: 0.00032298, // ≈60% of the analytic saturation load
		Warmup:  measure / 10,
		Measure: measure,
		Drain:   measure / 10,
		Seed:    7,
	}
}

// benchMcsim runs the configuration cfg builds b.N times and reports, next
// to ns/op, the cost of one executed scheduler event (ns/event) and the
// number of events per generated message (events/msg): the first moves with
// the engine's per-event cost, the second only if the engine's event
// structure changes.
func benchMcsim(b *testing.B, cfg func() mcsim.Config) {
	b.ReportAllocs()
	var events, msgs uint64
	for i := 0; i < b.N; i++ {
		res, err := mcsim.Run(cfg())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		msgs += uint64(res.Generated)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(msgs), "events/msg")
}

// BenchmarkMcsimOrg1 runs the whole-system simulator end to end; ns/op is
// dominated by the per-message hot path (routing, injection, channel events,
// measurement).
func BenchmarkMcsimOrg1(b *testing.B) {
	benchMcsim(b, func() mcsim.Config { return benchConfig(4000) })
}

// BenchmarkMcsimTelemetry is BenchmarkMcsimOrg1 with the contention
// instrument on, the configuration every served simulate job runs.
func BenchmarkMcsimTelemetry(b *testing.B) {
	benchMcsim(b, func() mcsim.Config {
		cfg := benchConfig(4000)
		cfg.Telemetry = &mcsim.TelemetryConfig{}
		return cfg
	})
}

// benchTopoConfig is benchConfig with a topology axis applied over the
// organization (see system.ApplyTopologyAxis).
func benchTopoConfig(measure int, axis string) mcsim.Config {
	cfg := benchConfig(measure)
	if err := system.ApplyTopologyAxis(&cfg.Org, axis); err != nil {
		panic(err)
	}
	return cfg
}

// BenchmarkMcsimJellyfish runs the same organization with every cluster's
// ICN1 replaced by the equal-budget random-regular topology: the plugin's
// frozen-path-arena AppendRoute instead of the tree's digit walk, on the
// same per-message hot path.
func BenchmarkMcsimJellyfish(b *testing.B) {
	benchMcsim(b, func() mcsim.Config { return benchTopoConfig(4000, "jellyfish") })
}

// BenchmarkMcsimBursty runs the same organization under a bursty MMPP
// arrival process with a bimodal message-length mix — the workload
// subsystem's hot path (per-node modulation state, per-message length draws,
// variable-M worms) on top of the simulator's.
func BenchmarkMcsimBursty(b *testing.B) {
	benchMcsim(b, func() mcsim.Config {
		cfg := benchConfig(4000)
		cfg.Arrival = workload.MMPP{Peak: 16, Burst: 32}
		cfg.Sizes = workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}
		return cfg
	})
}

// BenchmarkServeAnalyze measures the serving layer's cached fast path:
// requests/sec through the full handler stack (mux routing, instrumentation,
// body read, response-cache lookup by the body's bytes) for a repeated
// POST /v1/analyze. The first request renders and caches the response;
// every measured iteration must be answered from the cache. The
// capacity-planning service is sized against a ≥10k req/s target here,
// i.e. ≤100µs/op.
func BenchmarkServeAnalyze(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"org":"org1","lambda":0.0003}`)
	post := func() int {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != 200 {
		b.Fatalf("warmup request: status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeAnalyzeMiss measures the serving layer's response-miss path
// on a prepared model: every iteration posts a λ no earlier request used, so
// it pays the model evaluation and the response render, but neither the
// model build nor the saturation search, which the warmup request did once.
func BenchmarkServeAnalyzeMiss(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(lambda float64) *httptest.ResponseRecorder {
		body := `{"org":"org1","lambda":` + strconv.FormatFloat(lambda, 'g', -1, 64) + `}`
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(0.0003); rec.Code != 200 {
		b.Fatalf("warmup request: status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post(0.0002 + float64(i+1)*1e-12)
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
			b.Fatalf("status %d X-Cache=%q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkAnalyticEval measures one evaluation of the paper's model on the
// memoized evaluator (analytic.Grid) at a load no earlier iteration used:
// the model work behind every /v1/analyze response miss and every
// saturation-search probe. "org1" is the 32-cluster Table 1 organization;
// "topologies" cycles through the builtin topologies study's models (Org2
// under the fat-tree, jellyfish and fat-tree+dragonfly axes), the scenarios
// analyze traffic spreads over. Loads sit at half of each model's
// saturation point.
func BenchmarkAnalyticEval(b *testing.B) {
	topologies, ok := sweep.Builtin("topologies")
	if !ok {
		b.Fatal("builtin topologies missing")
	}
	for _, c := range []struct {
		name string
		orgs []string
		axes []string
	}{
		{"org1", []string{"org1"}, []string{""}},
		{"topologies", topologies.Orgs, topologies.Topologies},
	} {
		b.Run(c.name, func(b *testing.B) {
			var grids []*analytic.Grid
			var loads []float64
			for _, spec := range c.orgs {
				for _, axis := range c.axes {
					org, err := system.ParseOrganization(spec)
					if err != nil {
						b.Fatal(err)
					}
					if err := system.ApplyTopologyAxis(&org, axis); err != nil {
						b.Fatal(err)
					}
					sys, err := system.New(org)
					if err != nil {
						b.Fatal(err)
					}
					m, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					g := analytic.NewGrid(m)
					grids = append(grids, g)
					loads = append(loads, 0.5*g.SaturationPoint(1e-6, 1, 1e-3))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(grids)
				if _, err := grids[k].MeanLatency(loads[k] + float64(i+1)*1e-15); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N), "us/eval")
		})
	}
}

// sweepGridModels builds the calibrated models of the sweep-grid
// benchmark's six placements: both Table 1 organizations under each of its
// three topology axes.
func sweepGridModels(tb testing.TB) []*analytic.Model {
	spec := benchGridSpec()
	var models []*analytic.Model
	for _, name := range spec.Orgs {
		for _, axis := range spec.Topologies {
			org, err := system.ParseOrganization(name)
			if err != nil {
				tb.Fatal(err)
			}
			if err := system.ApplyTopologyAxis(&org, axis); err != nil {
				tb.Fatal(err)
			}
			sys, err := system.New(org)
			if err != nil {
				tb.Fatal(err)
			}
			m, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
			if err != nil {
				tb.Fatal(err)
			}
			models = append(models, m)
		}
	}
	return models
}

// BenchmarkSaturationSearch measures the analytic layer's share of a cold
// sweep-grid expansion: the six placement searches, each at the placement
// tolerance 1e-3 on a fresh Grid, as sweep.Expand runs them on a model it
// has not searched. The models are built outside the timer, so the number
// is the search alone; BenchmarkSweepExpand adds parsing, model builds and
// the goroutines around it.
func BenchmarkSaturationSearch(b *testing.B) {
	models := sweepGridModels(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, m := range models {
			if sat := analytic.NewGrid(m).SaturationPoint(1e-6, 1, 1e-3); !(sat > 0) {
				b.Fatalf("saturation point %v", sat)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*len(models)), "us/search")
}

// benchGridSpec is the sweep-grid benchmark's spec: both Table 1
// organizations × three topologies at equal switch budget × Poisson and
// MMPP arrivals × 4 loads.
func benchGridSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "bench-grid",
		Orgs:       []string{"org1", "org2"},
		Topologies: []string{"fattree", "jellyfish", "fattree+dragonfly"},
		Arrivals:   []string{"poisson", "mmpp:8:16"},
		Loads:      sweep.Loads{Points: 4, MaxFraction: 0.9},
		Warmup:     200, Measure: 2000, Drain: 200,
	}
}

// expandRuns numbers every BenchmarkSweepExpand iteration in the process,
// so each one expands a spec the model memo has not seen.
var expandRuns int

// BenchmarkSweepExpand measures a cold expansion of the sweep-grid
// benchmark's spec: spec parsing, model construction and the analytic
// saturation searches that place every organization's load grid, run on up
// to GOMAXPROCS goroutines. Each iteration scales α_net by a distinct
// factor just above 1, so the sweep's process-wide model memo never hits
// and every model is built and searched afresh. Topologies come from the
// process-wide topo cache after the first iteration, so the metric is
// dominated by the saturation searches.
func BenchmarkSweepExpand(b *testing.B) {
	spec := benchGridSpec()
	d := units.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		expandRuns++
		scale := 1 + float64(expandRuns)*1e-12
		spec.Tech = &sweep.Tech{AlphaNet: d.AlphaNet * scale, AlphaSw: d.AlphaSw, BetaNet: d.BetaNet}
		if _, err := sweep.Expand(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/expand")
}

// memCache is an in-memory sweep.Cache: a map behind a mutex, safe for the
// engine's concurrent workers.
type memCache struct {
	mu sync.Mutex
	m  map[string]sweep.Outcome
}

func (c *memCache) Get(key string) (sweep.Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.m[key]
	return o, ok
}

func (c *memCache) Put(key string, o sweep.Outcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = o
	return nil
}

// warmCache holds the outcomes of every sweep-grid benchmark job, filled
// once per process by a cold engine pass.
var warmCache = sync.OnceValues(func() (*memCache, error) {
	cache := &memCache{m: make(map[string]sweep.Outcome)}
	_, err := (&sweep.Engine{Cache: cache}).Run(benchGridSpec())
	return cache, err
})

// BenchmarkSweepWarm measures one engine pass of the sweep-grid benchmark's
// spec over a filled outcome cache: expansion, the analysis column, one
// cache read per job and the ordered emission of every row, with no
// simulation. It is the sweep engine's warm-cache number: "mem" reads an
// in-memory cache, so it prices the engine alone, and "dir" reads a
// DirCache in b.TempDir(), as a resumed sweep and perfbench's warm passes
// do.
func BenchmarkSweepWarm(b *testing.B) {
	mem, err := warmCache()
	if err != nil {
		b.Fatal(err)
	}
	dir, _ := filledDirCache(b)
	for _, c := range []struct {
		name  string
		cache sweep.Cache
	}{{"mem", mem}, {"dir", dir}} {
		b.Run(c.name, func(b *testing.B) { benchWarmPasses(b, c.cache) })
	}
}

// benchWarmPasses times warm engine passes of the sweep-grid spec over
// cache, which holds every job's outcome.
func benchWarmPasses(b *testing.B, cache sweep.Cache) {
	spec := benchGridSpec()
	run := func() int {
		var buf bytes.Buffer
		sink := sweep.NewJSONLSink(&buf)
		eng := &sweep.Engine{Cache: cache, Sinks: []sweep.Sink{sink}}
		sum, err := eng.Run(spec)
		if err == nil {
			err = sink.Flush()
		}
		if err != nil {
			b.Fatal(err)
		}
		if sum.CacheHits != sum.Total {
			b.Fatalf("warm pass: %d of %d jobs from the cache", sum.CacheHits, sum.Total)
		}
		return sum.Total
	}
	jobs := run() // untimed: puts the spec's models in the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(secs*1e3/float64(b.N), "ms/pass")
	b.ReportMetric(float64(jobs*b.N)/secs, "jobs/s")
}

// BenchmarkSweepCold measures one engine pass of the sweep-grid benchmark's
// spec with no cache, at Workers: 0 (GOMAXPROCS): expansion, all 48
// simulations and the ordered emission of every row. It is the sweep
// engine's cold-cache number, next to BenchmarkSweepWarm's warm one; with
// two or more workers it includes the garbage collector's share of the
// workers' CPU, which a released run's recycled arrays keep small.
func BenchmarkSweepCold(b *testing.B) {
	spec := benchGridSpec()
	var jobs int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink := sweep.NewJSONLSink(io.Discard)
		sum, err := (&sweep.Engine{Sinks: []sweep.Sink{sink}}).Run(spec)
		if err == nil {
			err = sink.Flush()
		}
		if err != nil {
			b.Fatal(err)
		}
		if sum.Executed != sum.Total {
			b.Fatalf("cold pass: %d of %d jobs executed", sum.Executed, sum.Total)
		}
		jobs += sum.Total
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(secs*1e3/float64(b.N), "ms/pass")
	b.ReportMetric(float64(jobs)/secs, "jobs/s")
}

// BenchmarkSweepFigure runs the builtin Figure 3 (M=32) grid — 20 jobs over
// two message geometries and ten loads — at workers=1 and reduced measurement
// scale. This is the end-to-end number the ≥2× speedup target of the hot-path
// overhaul is judged against.
func BenchmarkSweepFigure(b *testing.B) {
	spec, ok := sweep.Builtin("fig3-m32")
	if !ok {
		b.Fatal("builtin fig3-m32 missing")
	}
	spec.Warmup, spec.Measure, spec.Drain = 200, 2000, 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := &sweep.Engine{Workers: 1}
		if _, err := eng.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// filledDirCache returns a DirCache in tb.TempDir() holding the outcomes of
// every sweep-grid benchmark job, and its keys in sorted order.
func filledDirCache(tb testing.TB) (*sweep.DirCache, []string) {
	mem, err := warmCache()
	if err != nil {
		tb.Fatal(err)
	}
	cache, err := sweep.NewDirCache(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	var keys []string
	for k, o := range mem.m {
		if err := cache.Put(k, o); err != nil {
			tb.Fatal(err)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return cache, keys
}

// BenchmarkDirCacheGet measures one DirCache.Get hit over a b.TempDir()
// cache holding the outcomes of every sweep-grid benchmark job: open, read,
// decode and close one entry file. A warm sweep pays it once per job.
func BenchmarkDirCacheGet(b *testing.B) {
	cache, keys := filledDirCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Get(keys[i%len(keys)]); !ok {
			b.Fatalf("entry %s missing", keys[i%len(keys)])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/get")
}

// simulateJobs numbers every BenchmarkServeSimulateJob iteration in the
// process, so that no two iterations, in any round, post the same load.
var simulateJobs int

// BenchmarkServeSimulateJob measures one served simulate job end to end
// through Server.Handler(): the POST /v1/simulate that decodes,
// canonicalizes and queues the job, a queue worker's telemetry-on run, and
// the GET /v1/jobs/{id} polls, one every 100 µs, until it reads done. Every
// iteration posts a λ no earlier one used, so no job is answered from the
// outcome cache or joins another's run. The phases are small (Org1 with
// 100/1000/100 messages), so the number is the serving layer's per-job
// cost on top of a short simulation.
func BenchmarkServeSimulateJob(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulateJobs++
		lambda := strconv.FormatFloat(0.0002+float64(simulateJobs)*1e-12, 'g', -1, 64)
		rec := do("POST", "/v1/simulate", `{"org":"org1","lambda":`+lambda+`,"warmup":100,"measure":1000,"drain":100}`)
		var ref struct {
			ID string `json:"id"`
		}
		if rec.Code != 202 || json.Unmarshal(rec.Body.Bytes(), &ref) != nil {
			b.Fatalf("submit: status %d, X-Cache %q: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		for {
			rec := do("GET", "/v1/jobs/"+ref.ID, "")
			var doc struct {
				Status string `json:"status"`
			}
			if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &doc) != nil || doc.Status == "failed" {
				b.Fatalf("poll: status %d: %s", rec.Code, rec.Body)
			}
			if doc.Status == "done" {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/job")
}
