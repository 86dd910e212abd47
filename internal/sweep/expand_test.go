package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// tinySpec is a fast grid used across the package tests: 2 patterns ×
// 2 loads on a 6-node system.
func tinySpec() Spec {
	return Spec{
		Name:     "tiny",
		Orgs:     []string{"m=4:2x1,2x2"},
		Messages: []MessageGeometry{{Flits: 32, FlitBytes: 256}},
		Patterns: []string{"uniform", "cluster-local:0.6"},
		Loads:    Loads{Points: 2, MaxFraction: 0.6},
		Warmup:   100, Measure: 1000, Drain: 100,
	}
}

func TestExpandDeterminism(t *testing.T) {
	a, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}
	if len(a) != 4 {
		t.Fatalf("jobs = %d, want 4 (2 patterns × 2 loads)", len(a))
	}
	keys := map[string]bool{}
	seeds := map[uint64]bool{}
	for i, j := range a {
		if j.Index != i {
			t.Errorf("job %d carries index %d", i, j.Index)
		}
		keys[j.Key()] = true
		seeds[j.SimSeed] = true
	}
	if len(keys) != len(a) || len(seeds) != len(a) {
		t.Errorf("keys/seeds not unique: %d keys, %d seeds for %d jobs", len(keys), len(seeds), len(a))
	}
}

func TestExpandOrderAndCoordinates(t *testing.T) {
	spec := tinySpec()
	spec.Reps = 2
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(jobs))
	}
	// Canonical order: pattern (outer) → load → rep (inner).
	want := []struct{ p, l, r int }{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
		{1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
	}
	for i, j := range jobs {
		if j.PatternIndex != want[i].p || j.LoadIndex != want[i].l || j.Rep != want[i].r {
			t.Errorf("job %d: (pattern,load,rep) = (%d,%d,%d), want (%d,%d,%d)",
				i, j.PatternIndex, j.LoadIndex, j.Rep, want[i].p, want[i].l, want[i].r)
		}
	}
}

func TestBaseSeedChangesSeedsAndKeys(t *testing.T) {
	a, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.BaseSeed = 7
	b, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].SimSeed == b[0].SimSeed {
		t.Error("different base seeds derived the same simulator seed")
	}
	if a[0].Key() == b[0].Key() {
		t.Error("different base seeds produced the same cache key")
	}
	// Everything except seed-derived fields must match.
	if a[0].Lambda != b[0].Lambda || a[0].Org != b[0].Org {
		t.Error("base seed changed non-seed job fields")
	}
}

func TestCanonicalOrgSharesKeys(t *testing.T) {
	// "org1" and its explicit spelling must expand to identical jobs, so
	// cached outcomes are shared between them.
	mk := func(org string) Spec {
		s := tinySpec()
		s.Orgs = []string{org}
		s.Loads = Loads{Lambdas: []float64{1e-4}}
		return s
	}
	a, err := Expand(mk("org1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(mk("m=8:12x1,16x2,4x3"))
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Key() != b[0].Key() {
		t.Errorf("org1 key %s != explicit spelling key %s", a[0].Key(), b[0].Key())
	}
}

func TestAxisIndicesDoNotAffectKeys(t *testing.T) {
	// Reordering an axis relabels coordinates but must keep each job's key,
	// so a reordered spec still hits the cache.
	spec := tinySpec()
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Patterns = []string{"cluster-local:0.6", "uniform"}
	swapped, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Job{}
	for _, j := range jobs {
		byKey[j.Key()] = j
	}
	for _, j := range swapped {
		orig, ok := byKey[j.Key()]
		if !ok {
			t.Fatalf("job %+v has no key match after axis reorder", j)
		}
		if orig.Pattern != j.Pattern || orig.Lambda != j.Lambda || orig.SimSeed != j.SimSeed {
			t.Errorf("key collision across distinct jobs: %+v vs %+v", orig, j)
		}
	}
}

// TestLinkAxisIdentityOmission pins the cache-compatibility contract of the
// link-heterogeneity axis: a spec that does not sweep links (or sweeps only
// the explicit "uniform" point) produces jobs with exactly the keys and
// derived seeds it produced before the axis existed, and only non-default
// link points change them.
func TestLinkAxisIdentityOmission(t *testing.T) {
	plain, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	explicit := tinySpec()
	explicit.Links = []string{"uniform"}
	expl, err := Expand(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(expl) {
		t.Fatalf("grid sizes differ: %d vs %d", len(plain), len(expl))
	}
	for i := range plain {
		if plain[i].Key() != expl[i].Key() || plain[i].SimSeed != expl[i].SimSeed {
			t.Fatalf("job %d: explicit uniform links changed identity:\n%+v\nvs\n%+v",
				i, plain[i], expl[i])
		}
		if plain[i].Links != "" || plain[i].LinksName() != "uniform" {
			t.Fatalf("job %d: default links not canonicalized to the empty string: %+v", i, plain[i])
		}
	}

	hetero := tinySpec()
	hetero.Links = []string{"uniform", "icn2=0.04/0.02/0.004"}
	het, err := Expand(hetero)
	if err != nil {
		t.Fatal(err)
	}
	if len(het) != 2*len(plain) {
		t.Fatalf("links axis did not double the grid: %d vs %d", len(het), len(plain))
	}
	keys := map[string]bool{}
	for _, j := range plain {
		keys[j.Key()] = true
	}
	for _, j := range het {
		switch j.Links {
		case "":
			if !keys[j.Key()] {
				t.Fatalf("uniform job %+v lost its pre-axis key", j)
			}
		case "icn2=0.04/0.02/0.004":
			if keys[j.Key()] {
				t.Fatalf("hetero job %+v collides with a uniform key", j)
			}
		default:
			t.Fatalf("unexpected canonical links value %q", j.Links)
		}
	}
}

// TestLinkAxisCanonicalization: equivalent tier specs (reordered, aliased)
// share cache keys.
func TestLinkAxisCanonicalization(t *testing.T) {
	a := tinySpec()
	a.Links = []string{"icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004"}
	b := tinySpec()
	b.Links = []string{"conc=0.03/0.015/0.004+icn2=0.04/0.02/0.004"}
	ja, err := Expand(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := Expand(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ja {
		if ja[i].Key() != jb[i].Key() {
			t.Fatalf("job %d: reordered tier spec changed the key", i)
		}
	}
	par, err := ja[0].Params()
	if err != nil {
		t.Fatal(err)
	}
	if par.Tiers.ICN2 == nil || par.Tiers.Conc == nil || par.Tiers.ICN1 != nil {
		t.Fatalf("Job.Params did not materialize the tiers: %+v", par.Tiers)
	}
}

// TestTopologyAxisIdentityOmission pins the cache-compatibility contract of
// the topology axis: a spec that does not sweep topologies (or sweeps only
// the explicit default point) produces jobs with exactly the keys and
// derived seeds it produced before the axis existed, and only non-default
// topology points change them.
func TestTopologyAxisIdentityOmission(t *testing.T) {
	plain, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []string{"", "fattree", "fattree+fattree"} {
		explicit := tinySpec()
		explicit.Topologies = []string{def}
		expl, err := Expand(explicit)
		if err != nil {
			t.Fatalf("Topologies=[%q]: %v", def, err)
		}
		if len(plain) != len(expl) {
			t.Fatalf("Topologies=[%q]: grid sizes differ: %d vs %d", def, len(plain), len(expl))
		}
		for i := range plain {
			if plain[i].Key() != expl[i].Key() || plain[i].SimSeed != expl[i].SimSeed {
				t.Fatalf("job %d: explicit default topology %q changed identity:\n%+v\nvs\n%+v",
					i, def, plain[i], expl[i])
			}
			if expl[i].Topo != "" || expl[i].TopoName() != "fattree" {
				t.Fatalf("job %d: default topology not canonicalized to the empty string: %+v", i, expl[i])
			}
		}
	}

	multi := tinySpec()
	multi.Topologies = []string{"fattree", "jellyfish", "fattree+dragonfly"}
	jobs, err := Expand(multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3*len(plain) {
		t.Fatalf("topology axis did not triple the grid: %d vs %d", len(jobs), len(plain))
	}
	keys := map[string]bool{}
	for _, j := range plain {
		keys[j.Key()] = true
	}
	for _, j := range jobs {
		switch j.Topo {
		case "":
			if !keys[j.Key()] {
				t.Fatalf("fat-tree job %+v lost its pre-axis key", j)
			}
		case "jellyfish", "fattree+dragonfly":
			if keys[j.Key()] {
				t.Fatalf("topology job %+v collides with a fat-tree key", j)
			}
		default:
			t.Fatalf("unexpected canonical topology value %q", j.Topo)
		}
	}
}

// TestTopoOrgAppliesAxis: the organization a job materializes carries the
// job's topology point on every cluster spec and on ICN2.
func TestTopoOrgAppliesAxis(t *testing.T) {
	spec := tinySpec()
	spec.Topologies = []string{"jellyfish.s7+dragonfly"}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	org, err := jobs[0].TopoOrg()
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range org.Specs {
		if cs.Topo.String() != "jellyfish.s7" {
			t.Fatalf("cluster spec topology = %q, want jellyfish.s7", cs.Topo)
		}
	}
	if org.ICN2Topo.String() != "dragonfly" {
		t.Fatalf("ICN2 topology = %q, want dragonfly", org.ICN2Topo)
	}
	// The serialized org string is untouched: topology identity lives in the
	// Topo field, not in a rewritten spec.
	plain, err := Expand(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Org != plain[0].Org {
		t.Fatalf("topology axis rewrote the org spec string: %q vs %q", jobs[0].Org, plain[0].Org)
	}
}

func TestTopologyAxisRejectsBadValues(t *testing.T) {
	for _, bad := range []string{"torus", "dragonfly", "jellyfish+jellyfish", "fattree+jellyfish"} {
		spec := tinySpec()
		spec.Topologies = []string{bad}
		if _, err := Expand(spec); err == nil {
			t.Errorf("Topologies=[%q]: expansion of invalid spec succeeded", bad)
		}
	}
}

func TestExplicitLambdas(t *testing.T) {
	spec := tinySpec()
	spec.Loads = Loads{Lambdas: []float64{1e-4, 2e-4, 3e-4}}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("jobs = %d, want 6", len(jobs))
	}
	for _, j := range jobs {
		want := spec.Loads.Lambdas[j.LoadIndex]
		if j.Lambda != want {
			t.Errorf("job %d: lambda %v, want %v", j.Index, j.Lambda, want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Orgs = nil },
		func(s *Spec) { s.Orgs = []string{"m=3:2x1"} },
		func(s *Spec) { s.Patterns = []string{"nope"} },
		func(s *Spec) { s.Patterns = []string{"hotspot:1.5"} },
		func(s *Spec) { s.Routing = []string{"leftwards"} },
		func(s *Spec) { s.Loads = Loads{} },
		func(s *Spec) { s.Loads = Loads{Lambdas: []float64{-1}} },
		func(s *Spec) { s.Model = "astrology" },
		func(s *Spec) { s.Messages = []MessageGeometry{{Flits: 0, FlitBytes: 256}} },
		func(s *Spec) { s.Warmup, s.Measure, s.Drain = 100, 3000000000, 100 },
	}
	for i, mutate := range bad {
		spec := tinySpec()
		mutate(&spec)
		if _, err := Expand(spec); err == nil {
			t.Errorf("case %d: expansion of invalid spec succeeded", i)
		}
	}
}

// TestValidatePhaseBound: a spec whose phases sum past the simulator's
// message bound fails validation with the simulator's own message, before
// any job runs.
func TestValidatePhaseBound(t *testing.T) {
	spec := tinySpec()
	spec.Warmup, spec.Measure, spec.Drain = 100, 3000000000, 100
	err := spec.Normalized().Validate()
	if err == nil || !strings.Contains(err.Error(), "sum past 2147483647 messages") {
		t.Fatalf("Validate = %v, want the phase-count bound", err)
	}
	spec.Warmup, spec.Measure, spec.Drain = 1, math.MaxInt32-2, 1
	if err := spec.Normalized().Validate(); err != nil {
		t.Fatalf("phases summing to the bound rejected: %v", err)
	}
}

func TestValidateRawSpecDoesNotPanic(t *testing.T) {
	// Validate on a raw, un-Normalized spec (empty Messages relying on the
	// documented default) must report an error, not panic.
	raw := Spec{
		Orgs:   []string{"org1"},
		Loads:  Loads{Points: 4},
		Warmup: 100, Measure: 1000, Drain: 100,
	}
	if err := raw.Validate(); err == nil {
		t.Error("raw spec with no messages validated cleanly")
	}
	if err := raw.Normalized().Validate(); err != nil {
		t.Errorf("normalized spec failed validation: %v", err)
	}
}

func TestParsePatternForms(t *testing.T) {
	for _, ok := range []string{"uniform", "hotspot:0.05", "cluster-local:0.6"} {
		if _, err := ParsePattern(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
	for _, bad := range []string{"uniform:0.5", "hotspot", "hotspot:x", "cluster-local:2"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestBuiltinSpecsExpand(t *testing.T) {
	for _, name := range BuiltinNames() {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		jobs, err := Expand(spec)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(jobs) == 0 {
			t.Errorf("%s: empty grid", name)
		}
	}
	if _, ok := Builtin("no-such"); ok {
		t.Error("unknown builtin resolved")
	}
}

// joinedIdentity is the job identity as strings joined by "|", the
// rendering keys and seeds were first defined by; appendIdentity must
// reproduce it byte for byte.
func joinedIdentity(j Job) string {
	hf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	parts := []string{
		"org=" + j.Org,
		"flits=" + strconv.Itoa(j.Flits),
		"flitbytes=" + strconv.Itoa(j.FlitBytes),
		"pattern=" + j.Pattern,
		"routing=" + j.Routing,
		"lambda=" + hf(j.Lambda),
		"rep=" + strconv.Itoa(j.Rep),
		"alphanet=" + hf(j.AlphaNet),
		"alphasw=" + hf(j.AlphaSw),
		"betanet=" + hf(j.BetaNet),
		"warmup=" + strconv.Itoa(j.Warmup),
		"measure=" + strconv.Itoa(j.Measure),
		"drain=" + strconv.Itoa(j.Drain),
		"seed=" + strconv.FormatUint(j.SimSeed, 10),
	}
	if j.Arrival != "" {
		parts = append(parts, "arrival="+j.Arrival)
	}
	if j.SizeDist != "" {
		parts = append(parts, "size="+j.SizeDist)
	}
	if j.Links != "" {
		parts = append(parts, "links="+j.Links)
	}
	if j.Topo != "" {
		parts = append(parts, "topo="+j.Topo)
	}
	return strings.Join(parts, "|")
}

// TestIdentityMatchesJoined pins Key and DeriveSeed to the joined identity:
// with every optional field empty and set, at extreme field values, and
// with an identity longer than the stack buffer.
func TestIdentityMatchesJoined(t *testing.T) {
	base := Job{
		Org: "m=8:16x1,16x2", Flits: 32, FlitBytes: 256, Pattern: "uniform", Routing: "balanced",
		Lambda: 3.1e-4, Rep: 2, AlphaNet: 0.02, AlphaSw: 0.01, BetaNet: 0.002,
		Warmup: 100, Measure: 1000, Drain: 100, SimSeed: math.MaxUint64,
	}
	full := base
	full.Arrival, full.SizeDist, full.Links, full.Topo = "mmpp:8:16", "bimodal:8:64:0.2", "icn2=0.04/0.02/0.004", "jellyfish+dragonfly"
	extreme := full
	extreme.Lambda, extreme.Rep, extreme.Warmup, extreme.Drain = math.SmallestNonzeroFloat64, math.MinInt, math.MaxInt, -1
	long := full
	long.Org = strings.Repeat("m=4:2x1,", 80) + "2x2"
	for _, j := range []Job{base, full, extreme, long} {
		id := joinedIdentity(j)
		sum := sha256.Sum256([]byte(id))
		if got, want := j.Key(), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%.40s…: key %s, want %s", id, got, want)
		}
		for _, seed := range []uint64{0, 1, 1 << 63} {
			h := sha256.New()
			h.Write([]byte(id))
			binary.Write(h, binary.LittleEndian, seed)
			if got, want := DeriveSeed(seed, j), binary.LittleEndian.Uint64(h.Sum(nil)[:8]); got != want {
				t.Errorf("%.40s… base %d: seed %d, want %d", id, seed, got, want)
			}
		}
	}
}
