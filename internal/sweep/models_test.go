package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// resetModelMemo empties the process-wide model memo, so the next sweep
// builds every model cold.
func resetModelMemo() {
	memo.Lock()
	defer memo.Unlock()
	memo.entries = make(map[string]*Model)
	memo.ring = [memoCapacity]string{}
	memo.next = 0
}

func memoLen() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.entries)
}

// freshPoint evaluates a model built from scratch, outside the memo, the
// way the engine turns a latency into an analysis point.
func freshPoint(t *testing.T, model, org, topoAxis string, par units.Params, lambda float64) analysisPoint {
	t.Helper()
	opts, err := ModelOptions(model)
	if err != nil {
		t.Fatal(err)
	}
	o, err := system.ParseOrganization(org)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.ApplyTopologyAxis(&o, topoAxis); err != nil {
		t.Fatal(err)
	}
	sys, err := system.New(o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := analytic.New(sys, par, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.MeanLatency(lambda)
	if err != nil {
		return analysisPoint{value: Float(math.NaN()), saturated: true}
	}
	return analysisPoint{value: Float(v)}
}

func samePoint(a, b analysisPoint) bool {
	return math.Float64bits(float64(a.value)) == math.Float64bits(float64(b.value)) && a.saturated == b.saturated
}

// requireFreshAnalysis checks every JSONL row's analysis column against a
// freshly built model of the row's job.
func requireFreshAnalysis(t *testing.T, model string, jsonl []byte) {
	t.Helper()
	for i, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		par, err := r.Job.Params()
		if err != nil {
			t.Fatal(err)
		}
		got := analysisPoint{value: r.Analysis, saturated: r.AnalysisSaturated}
		if want := freshPoint(t, model, r.Job.Org, r.Job.Topo, par, r.Job.Lambda); !samePoint(got, want) {
			t.Fatalf("row %d: analysis %+v, fresh model %+v", i, got, want)
		}
	}
}

// TestModelKeyStable pins the exact model key renderings the model memo
// keys on.
func TestModelKeyStable(t *testing.T) {
	tiers, err := units.ParseTiers("icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004")
	if err != nil {
		t.Fatal(err)
	}
	custom := units.Params{AlphaNet: 0.03, AlphaSw: 0.015, BetaNet: 1.0 / 300, FlitBytes: 512, MessageFlits: 64, Tiers: tiers}
	cases := []struct {
		name string
		got  string
		want string
	}{
		{
			"default fat-tree org",
			ModelKey("calibrated", system.Format(system.Table1Org1()), "", "", units.Default()),
			"model=calibrated|org=m=8:12x1,16x2,4x3|m=32|lm=256|links=|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09",
		},
		{
			"jellyfish axis",
			ModelKey("calibrated", system.Format(system.Table1Org2()), "", "jellyfish", units.Default()),
			"model=calibrated|org=m=4:8x3,3x4,5x5|m=32|lm=256|links=|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09|topo=jellyfish",
		},
		{
			"tiered links and custom technology",
			ModelKey("paper-literal", "m=4:2x1,2x2", tiers.String(), "", custom),
			"model=paper-literal|org=m=4:2x1,2x2|m=64|lm=512|links=icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004|an=0x1.eb851eb851eb8p-06|as=0x1.eb851eb851eb8p-07|bn=0x1.b4e81b4e81b4fp-09",
		},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}

// memoGridSpec is a reduced sweep-grid spec: both Table 1 organizations
// crossed with three topologies and two arrival processes, two loads up to
// 0.9 of saturation, at tiny measurement scale.
func memoGridSpec() Spec {
	return Spec{
		Name:       "memo-grid",
		Orgs:       []string{"org1", "org2"},
		Topologies: []string{"fattree", "jellyfish", "fattree+dragonfly"},
		Arrivals:   []string{"poisson", "mmpp:8:16"},
		Loads:      Loads{Points: 2, MaxFraction: 0.9},
		Warmup:     50, Measure: 300, Drain: 50,
	}
}

// fakeExec stands in for the simulator where only the analysis column is
// under test.
func fakeExec(j Job) (Outcome, bool, error) { return Outcome{SimLatency: Float(j.Lambda)}, false, nil }

// TestModelMemoHistoryIndependent runs the reduced sweep-grid spec cold,
// warm, and after a spec that shares its models but evaluates other loads
// (past saturation too): the three JSONL outputs must be byte-identical.
func TestModelMemoHistoryIndependent(t *testing.T) {
	spec := memoGridSpec()
	cache := newMemCache()
	resetModelMemo()
	_, cold, sum := runToBytes(t, &Engine{Cache: cache}, spec)
	if sum.Executed != sum.Total {
		t.Fatalf("cold run summary %+v", sum)
	}
	// Grid placement and the analysis column share one entry per model:
	// 2 organizations × 3 topologies.
	if n := memoLen(); n != 6 {
		t.Fatalf("memo holds %d models after the cold run, want 6", n)
	}
	requireFreshAnalysis(t, "calibrated", cold)
	_, warm, sum := runToBytes(t, &Engine{Cache: cache}, spec)
	if sum.CacheHits != sum.Total {
		t.Fatalf("warm run summary %+v", sum)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm run differs from the cold run")
	}

	resetModelMemo()
	other := spec
	other.Name = "memo-grid-other"
	other.Loads = Loads{Points: 5, MaxFraction: 1.7}
	runToBytes(t, &Engine{Exec: fakeExec}, other)
	if n := memoLen(); n != 6 {
		t.Fatalf("memo holds %d models after the overlapping spec, want 6", n)
	}
	_, after, _ := runToBytes(t, &Engine{Cache: cache}, spec)
	if !bytes.Equal(cold, after) {
		t.Error("run after an overlapping spec differs from the cold run")
	}
}

// TestModelMemoConcurrent runs overlapping specs from 8 goroutines at once;
// every output must match the spec's output from a cold memo.
func TestModelMemoConcurrent(t *testing.T) {
	base := Spec{
		Name:       "memo-concurrent",
		Orgs:       []string{"m=4:2x1,2x2", "m=4:2x2,1x3"},
		Topologies: []string{"fattree", "fattree+dragonfly"},
		Messages:   []MessageGeometry{{32, 256}, {64, 256}},
		Loads:      Loads{Points: 4, MaxFraction: 0.9},
		Measure:    100,
	}
	specs := []Spec{base, base, base}
	specs[1].Loads = Loads{Points: 3, MaxFraction: 1.4}
	specs[2].Model = "paper-literal"
	want := make([][]byte, len(specs))
	for i, s := range specs {
		resetModelMemo()
		_, want[i], _ = runToBytes(t, &Engine{Exec: fakeExec}, s)
		requireFreshAnalysis(t, s.Normalized().Model, want[i])
	}
	resetModelMemo()
	const goroutines = 8
	got := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			sink := NewJSONLSink(&buf)
			eng := &Engine{Exec: fakeExec, Sinks: []Sink{sink}}
			if _, errs[g] = eng.Run(specs[g%len(specs)]); errs[g] == nil {
				errs[g] = sink.Flush()
			}
			got[g] = buf.Bytes()
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(got[g], want[g%len(specs)]) {
			t.Errorf("goroutine %d: rows differ from the spec's cold run", g)
		}
	}
}

// TestModelMemoCapacity fills the memo past its capacity with distinct
// technology vectors: it never holds more than memoCapacity models, and
// every point, evicted model or not, matches a freshly built model's.
func TestModelMemoCapacity(t *testing.T) {
	resetModelMemo()
	const org = "m=4:2x1,2x2"
	fresh := func(par units.Params, lambda float64) analysisPoint {
		return freshPoint(t, "calibrated", org, "", par, lambda)
	}
	tech := func(i int) units.Params {
		par := units.Default()
		par.AlphaNet *= 1 + float64(i)*1e-3
		return par
	}
	const lambda = 2e-3
	for i := 0; i < memoCapacity+10; i++ {
		par := tech(i)
		got, err := ModelFor("calibrated", org, "", "", par).point(lambda)
		if err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > memoCapacity {
			t.Fatalf("memo holds %d models, capacity %d", n, memoCapacity)
		}
		if want := fresh(par, lambda); got.saturated || !samePoint(got, want) {
			t.Fatalf("tech %d: memo point %+v, fresh model %+v", i, got, want)
		}
	}
	if n := memoLen(); n != memoCapacity {
		t.Fatalf("memo holds %d models after overfilling, want %d", n, memoCapacity)
	}
	// The first vector was evicted; asking again rebuilds it correctly.
	got, err := ModelFor("calibrated", org, "", "", tech(0)).point(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(tech(0), lambda); !samePoint(got, want) {
		t.Fatalf("rebuilt model point %+v, fresh model %+v", got, want)
	}

	// One model's point map is bounded too.
	m := ModelFor("calibrated", org, "", "", units.Default())
	for i := 0; i <= memoPointCap; i++ {
		if _, err := m.point(1e-4 * (1 + float64(i)/memoPointCap)); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	n := len(m.points)
	m.mu.Unlock()
	if n > memoPointCap {
		t.Fatalf("model holds %d points, cap %d", n, memoPointCap)
	}
	got, _ = m.point(lambda)
	if want := fresh(units.Default(), lambda); !samePoint(got, want) {
		t.Fatalf("point after the map reset %+v, fresh model %+v", got, want)
	}
}

// TestModelMemoFailedBuilds: a model whose organization parses but does not
// build takes no memo slot, so a memo's worth of distinct bad organizations
// leaves a built model in place and built.
func TestModelMemoFailedBuilds(t *testing.T) {
	resetModelMemo()
	const org = "m=8:12x1,16x2,4x3"
	m := ModelFor("calibrated", org, "", "", units.Default())
	if _, err := m.MeanLatency(3e-4); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= memoCapacity; i++ {
		bad := fmt.Sprintf("m=3:%dx1", i) // odd port count: parses, does not build
		if _, err := ModelFor("calibrated", bad, "", "", units.Default()).MeanLatency(3e-4); err == nil {
			t.Fatalf("%s built", bad)
		}
	}
	if n := memoLen(); n != 1 {
		t.Fatalf("memo holds %d entries after the failed builds, want 1", n)
	}
	again := ModelFor("calibrated", org, "", "", units.Default())
	again.mu.Lock()
	built := again.grid != nil
	again.mu.Unlock()
	if again != m || !built {
		t.Fatalf("Org1 entry replaced (%v) or unbuilt (%v) after the failed builds", again != m, !built)
	}
}

// TestModelSaturationPerTolerance pins the memo entry's saturation points:
// the grid-placement point (1e-3) and the service's reported point (1e-4)
// each equal a fresh Grid search bit for bit, neither tolerance answers
// with the other's point, and each is searched once per entry (the test
// overwrites both stored points and expects the overwritten values back).
// MeanLatency answers without adding to the engine's λ-points map.
func TestModelSaturationPerTolerance(t *testing.T) {
	resetModelMemo()
	const org = "m=8:12x1,16x2,4x3"
	sys, err := system.New(system.Table1Org1())
	if err != nil {
		t.Fatal(err)
	}
	am, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := ModelFor("calibrated", org, "", "", units.Default())
	stored := map[float64]float64{}
	for _, tol := range []float64{1e-3, 1e-4} {
		got, err := m.SaturationPoint(tol)
		if err != nil {
			t.Fatal(err)
		}
		if want := analytic.NewGrid(am).SaturationPoint(1e-6, 1, tol); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tol %g: memo point %x, fresh search %x", tol, got, want)
		}
		stored[tol] = math.Nextafter(got, 0)
	}
	if stored[1e-3] == stored[1e-4] {
		t.Fatalf("tolerances 1e-3 and 1e-4 gave the same point %x", stored[1e-3])
	}
	m.mu.Lock()
	for tol, v := range stored {
		m.sat[tol] = v
	}
	m.mu.Unlock()
	for _, tol := range []float64{1e-4, 1e-3} {
		if got, _ := ModelFor("calibrated", org, "", "", units.Default()).SaturationPoint(tol); got != stored[tol] {
			t.Fatalf("tol %g: point %x, want the stored %x", tol, got, stored[tol])
		}
	}

	const lambda = 3e-4
	got, err := m.MeanLatency(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshPoint(t, "calibrated", org, "", units.Default(), lambda); !samePoint(analysisPoint{value: Float(got)}, want) {
		t.Fatalf("MeanLatency %x, fresh model %+v", got, want)
	}
	m.mu.Lock()
	n := len(m.points)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("MeanLatency added %d points to the engine's map", n)
	}
}

// TestExpandPlacementAnyProcs: a cold expansion of the sweep-grid
// benchmark's spec places the same load grids, and so gives the same jobs,
// whether its saturation searches run on one goroutine or on four.
func TestExpandPlacementAnyProcs(t *testing.T) {
	spec := memoGridSpec()
	spec.Loads.Points = 4
	var runs [][]Job
	for _, procs := range []int{1, 4} {
		resetModelMemo()
		prev := runtime.GOMAXPROCS(procs)
		jobs, err := Expand(spec)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		runs = append(runs, jobs)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("Expand at GOMAXPROCS 1 and 4 gave different jobs")
	}
}

// TestExpandPlacementFirstError: when several placement searches fail, the
// expansion reports the first failure in spec order at any GOMAXPROCS, not
// the first to finish. Both failing organizations parse and build as fat
// trees; their equal-budget jellyfish exceed the switch bound.
func TestExpandPlacementFirstError(t *testing.T) {
	spec := tinySpec()
	spec.Orgs = []string{"org1", "m=4:2x9", "m=4:2x8"}
	spec.Topologies = []string{"fattree", "jellyfish"}
	for _, procs := range []int{1, 4} {
		resetModelMemo()
		prev := runtime.GOMAXPROCS(procs)
		_, err := Expand(spec)
		runtime.GOMAXPROCS(prev)
		if err == nil || !strings.Contains(err.Error(), `org "m=4:2x9"`) {
			t.Fatalf("GOMAXPROCS %d: error %v, want the m=4:2x9 jellyfish's", procs, err)
		}
	}
}

// TestWarmPlacementSearchesNothing: once a spec has expanded, every one of
// its placement searches is memoized, so a warm expansion takes the serial
// path and starts no goroutine; a cold memo leaves every search pending.
func TestWarmPlacementSearchesNothing(t *testing.T) {
	spec := memoGridSpec().Normalized()
	var orgs []string
	for _, o := range spec.Orgs {
		c, err := canonicalOrg(o)
		if err != nil {
			t.Fatal(err)
		}
		orgs = append(orgs, c)
	}
	links, err := canonicalLinks(spec.Links)
	if err != nil {
		t.Fatal(err)
	}
	topos, err := canonicalTopos(spec.Topologies)
	if err != nil {
		t.Fatal(err)
	}
	resetModelMemo()
	if ps := placements(spec, orgs, links, topos); len(unsearched(ps)) != len(ps) || len(ps) != 6 {
		t.Fatalf("cold memo: %d of %d searches pending, want all 6", len(unsearched(ps)), len(ps))
	}
	if _, err := Expand(spec); err != nil {
		t.Fatal(err)
	}
	if todo := unsearched(placements(spec, orgs, links, topos)); len(todo) != 0 {
		t.Fatalf("warm memo: searches %v pending, want none", todo)
	}
}
