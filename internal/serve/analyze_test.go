package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden analyze responses")

// goldenAnalyzeBodies are the /v1/analyze requests whose response bytes are
// pinned by testdata/analyze_golden.ndjson: a Table 1 organization below and
// past saturation (the second reuses the first's memoized model), the other
// Table 1 organization with a link-tier override and a non-default message
// geometry under the paper-literal model, and a jellyfish/dragonfly
// organization.
var goldenAnalyzeBodies = []string{
	`{"org":"org1","lambda":0.0003}`,
	`{"org":"org1","lambda":0.01}`,
	`{"org":"org2","lambda":0.00001,"flits":64,"flit_bytes":512,"links":"icn2=0.04/0.02/0.004","model":"paper-literal"}`,
	`{"org":"m=4@icn2topo=dragonfly:8x3@topo=jellyfish,3x4,5x5@topo=jellyfish","lambda":0.0002}`,
}

// TestAnalyzeGolden pins the rendered /v1/analyze documents byte for byte:
// latency, saturation flag and saturation point are the model's exact bits,
// so any change to the evaluation or search path that moves a float fails
// here. Regenerate with -update-golden.
func TestAnalyzeGolden(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	var got bytes.Buffer
	for _, body := range goldenAnalyzeBodies {
		w := do(t, s, "POST", "/v1/analyze", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body)
		}
		got.Write(w.Body.Bytes())
	}
	checkGolden(t, "analyze_golden.ndjson", got.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("responses diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestAnalyzeSearchesSaturationOnce pins the saturation point every
// response miss reports, saturated ones included: the point a fresh Grid
// search finds at tolerance 1e-4. The model memo's own test checks that the
// search runs once per model and tolerance.
func TestAnalyzeSearchesSaturationOnce(t *testing.T) {
	sys, err := system.New(system.Table1Org1())
	if err != nil {
		t.Fatal(err)
	}
	m, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := analytic.NewGrid(m).SaturationPoint(1e-6, 1, 1e-4)

	s := newTestServer(t, Config{}, instantOutcome)
	for _, lambda := range []float64{1e-4, 3e-4, 5e-4, 1e-2, 2e-4} {
		w := do(t, s, "POST", "/v1/analyze", fmt.Sprintf(`{"org":"org1","lambda":%g}`, lambda))
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("λ=%g: status %d X-Cache=%q: %s", lambda, w.Code, w.Header().Get("X-Cache"), w.Body)
		}
		var resp analyzeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if got := float64(resp.SaturationPoint); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("λ=%g: saturation_point %x, want %x", lambda, got, want)
		}
	}
}

// TestAnalyzeErrorGolden pins the /v1/analyze error documents byte for
// byte: the status and body of every 400 in analyzeValidationCases, plus a
// document cut off by the 1 MiB body bound. Regenerate with -update-golden.
func TestAnalyzeErrorGolden(t *testing.T) {
	cases := []struct{ name, body string }{
		{"over 1 MiB", `{"org":"` + strings.Repeat("x", maxBodyBytes) + `","lambda":0.0003}`},
	}
	for _, tc := range analyzeValidationCases {
		if tc.want != http.StatusOK {
			cases = append(cases, struct{ name, body string }{tc.name, tc.body})
		}
	}
	s := newTestServer(t, Config{}, instantOutcome)
	var got bytes.Buffer
	for _, tc := range cases {
		w := do(t, s, "POST", "/v1/analyze", tc.body)
		fmt.Fprintf(&got, "%s\t%d\t%s", tc.name, w.Code, w.Body.Bytes())
	}
	checkGolden(t, "analyze_errors_golden.txt", got.Bytes())
}

// TestScenarioKeyStable pins the canonical response-cache keys of six
// analyze requests: a named organization and its expanded spec (one key),
// default and explicit message geometry, a link tier and a technology
// override. A changed key silently orphans every cached response.
func TestScenarioKeyStable(t *testing.T) {
	cases := []struct {
		name             string
		org              string
		lambda           float64
		flits, flitBytes int
		links            string
		tech             *sweep.Tech
		model            string
		key              string
	}{
		{name: "org1", org: "org1", lambda: 0.0003,
			key: "org=m=8:12x1,16x2,4x3|m=32|lm=256|links=|model=calibrated|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09|lambda=0x1.3a92a30553261p-12"},
		{name: "org1 expanded", org: "m=8:12x1,16x2,4x3", lambda: 0.0003,
			key: "org=m=8:12x1,16x2,4x3|m=32|lm=256|links=|model=calibrated|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09|lambda=0x1.3a92a30553261p-12"},
		{name: "default geometry", org: "org2", lambda: 0.00001, model: "paper-literal",
			key: "org=m=4:8x3,3x4,5x5|m=32|lm=256|links=|model=paper-literal|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09|lambda=0x1.4f8b588e368f1p-17"},
		{name: "explicit geometry", org: "org2", lambda: 0.00001, flits: 64, flitBytes: 512, model: "paper-literal",
			key: "org=m=4:8x3,3x4,5x5|m=64|lm=512|links=|model=paper-literal|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09|lambda=0x1.4f8b588e368f1p-17"},
		{name: "links tier", org: "org1", lambda: 0.0002, links: "icn2=0.04/0.02/0.004",
			key: "org=m=8:12x1,16x2,4x3|m=32|lm=256|links=icn2=0.04/0.02/0.004|model=calibrated|an=0x1.47ae147ae147bp-06|as=0x1.47ae147ae147bp-07|bn=0x1.0624dd2f1a9fcp-09|lambda=0x1.a36e2eb1c432dp-13"},
		{name: "tech override", org: "org1", lambda: 0.0002, tech: &sweep.Tech{AlphaNet: 0.05, AlphaSw: 0.01, BetaNet: 0.003},
			key: "org=m=8:12x1,16x2,4x3|m=32|lm=256|links=|model=calibrated|an=0x1.999999999999ap-05|as=0x1.47ae147ae147bp-07|bn=0x1.89374bc6a7efap-09|lambda=0x1.a36e2eb1c432dp-13"},
	}
	for _, tc := range cases {
		c, err := canonicalize(tc.org, tc.lambda, tc.flits, tc.flitBytes, tc.links, tc.tech, tc.model)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := c.key(); got != tc.key {
			t.Errorf("%s: key\n got %s\nwant %s", tc.name, got, tc.key)
		}
	}
}

// TestAnalyzeRespelledHit pins that a respelling of a cached scenario is
// answered from the cache with the same bytes: the expanded form of a named
// organization, and the same fields in a different order.
func TestAnalyzeRespelledHit(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	first := do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first analyze: %d X-Cache=%q: %s", first.Code, first.Header().Get("X-Cache"), first.Body)
	}
	for _, body := range []string{
		`{"org":"m=8:12x1,16x2,4x3","lambda":0.0003}`,
		`{"lambda":0.0003,"org":"org1"}`,
	} {
		for i := 0; i < 2; i++ {
			w := do(t, s, "POST", "/v1/analyze", body)
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
				t.Fatalf("%s (#%d): %d X-Cache=%q", body, i+1, w.Code, w.Header().Get("X-Cache"))
			}
			if !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%s (#%d): body differs:\n%s\n%s", body, i+1, w.Body, first.Body)
			}
		}
	}
}

// TestAnalyzeBuildErrorFirst pins that an organization that parses but
// does not build is reported ahead of every later field's fault, although
// canonicalization does not materialize the organization.
func TestAnalyzeBuildErrorFirst(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	for _, tc := range []struct{ body, want string }{
		{`{"org":"m=3:2x1","lambda":0}`, "system: invalid organization: ports m=3 must be even and ≥ 2"},
		{`{"org":"m=3:2x1","lambda":0.0003,"model":"psychic"}`, "system: invalid organization: ports m=3 must be even and ≥ 2"},
		{`{"org":"m=64:2x9","lambda":0.0003,"flits":-1}`, "system: invalid organization: cluster shape: topo: invalid m-port n-tree shape: m=64 n=9 has more than 1024 nodes"},
	} {
		w := do(t, s, "POST", "/v1/analyze", tc.body)
		var doc errorDoc
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusBadRequest || doc.Error != tc.want {
			t.Errorf("%s: %d %q, want 400 %q", tc.body, w.Code, doc.Error, tc.want)
		}
	}
}

// TestAnalyzeAliasBound pins which 200s store a byte alias: a body up to
// maxAliasBytes adds one entry beside its canonical key, a longer one adds
// none and is answered by canonical key on every repeat.
func TestAnalyzeAliasBound(t *testing.T) {
	doc := `{"org":"org1","lambda":0.0003}`
	for _, tc := range []struct {
		body    string
		entries int
	}{
		{doc, 2},
		{doc + strings.Repeat(" ", maxAliasBytes-len(doc)), 2},
		{doc + strings.Repeat(" ", maxAliasBytes-len(doc)+1), 1},
	} {
		s := newTestServer(t, Config{}, instantOutcome)
		for i, want := range []string{"miss", "hit", "hit"} {
			w := do(t, s, "POST", "/v1/analyze", tc.body)
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != want {
				t.Fatalf("%d-byte body, request %d: %d X-Cache=%q, want %q", len(tc.body), i+1, w.Code, w.Header().Get("X-Cache"), want)
			}
		}
		if n := s.resp.Len(); n != tc.entries {
			t.Fatalf("%d-byte body: %d response cache entries, want %d", len(tc.body), n, tc.entries)
		}
	}
}

// TestAnalyzeConcurrentRepeats sends one scenario in three spellings from
// several goroutines at once, so byte aliases are stored and read while
// other requests render and alias the same response: every answer is the
// bytes a lone request on a fresh server gets.
func TestAnalyzeConcurrentRepeats(t *testing.T) {
	bodies := []string{
		`{"org":"org1","lambda":0.0003}`,
		`{"lambda":0.0003,"org":"org1"}`,
		`{"org":"m=8:12x1,16x2,4x3","lambda":0.0003}`,
	}
	want := do(t, newTestServer(t, Config{}, instantOutcome), "POST", "/v1/analyze", bodies[0]).Body.String()
	s := newTestServer(t, Config{}, instantOutcome)
	const goroutines, requests = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				body := bodies[(g+i)%len(bodies)]
				w := do(t, s, "POST", "/v1/analyze", body)
				if w.Code != http.StatusOK || w.Body.String() != want {
					t.Errorf("%s: %d %s", body, w.Code, w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.respHits.Load() + s.respMisses.Load(); n != goroutines*requests {
		t.Errorf("%d responses counted, want %d", n, goroutines*requests)
	}
}

// FuzzAnalyzeRepeat checks the byte-alias path against the full one: any
// body, sent twice to one server and once to a fresh server, gets the same
// status and body bytes every time and never a 5xx, and a repeated 200 is
// answered from the response cache.
func FuzzAnalyzeRepeat(f *testing.F) {
	for _, body := range goldenAnalyzeBodies {
		f.Add(body)
	}
	for _, tc := range analyzeValidationCases {
		f.Add(tc.body)
	}
	warm, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(warm.Close)
	f.Fuzz(func(t *testing.T, body string) {
		first := do(t, warm, "POST", "/v1/analyze", body)
		if first.Code >= 500 {
			t.Fatalf("status %d: %s", first.Code, first.Body)
		}
		again := do(t, warm, "POST", "/v1/analyze", body)
		if first.Code == http.StatusOK && again.Header().Get("X-Cache") != "hit" {
			t.Fatalf("repeated 200 answered with X-Cache=%q", again.Header().Get("X-Cache"))
		}
		fresh := do(t, newTestServer(t, Config{Workers: 1}, nil), "POST", "/v1/analyze", body)
		for _, w := range []*httptest.ResponseRecorder{again, fresh} {
			if w.Code != first.Code || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("answers differ:\n%d %s\n%d %s", first.Code, first.Body, w.Code, w.Body)
			}
		}
	})
}
