package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mcnet/internal/mcsim"
)

// goldenRowsSpecs cross every field a JSONL row carries: default and
// non-default arrival, size_dist, links and topo, a load past the model's
// saturation point (a null analysis), and, in the second spec, telemetry
// digests. Every job delivers all its measured messages.
func goldenRowsSpecs() []Spec {
	return []Spec{{
		Name:       "golden-rows",
		Orgs:       []string{"m=4:2x2,2x3"},
		Arrivals:   []string{"poisson", "mmpp:8:16"},
		Sizes:      []string{"fixed", "geometric:32"},
		Links:      []string{"uniform", "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004"},
		Topologies: []string{"", "jellyfish"},
		Loads:      Loads{Lambdas: []float64{2e-4, 4e-3}},
		Warmup:     50, Measure: 400, Drain: 50,
		BaseSeed: 31,
	}, {
		Name:   "golden-rows-telemetry",
		Orgs:   []string{"m=4:2x2,2x3"},
		Loads:  Loads{Lambdas: []float64{1e-4}},
		Warmup: 50, Measure: 400, Drain: 50,
		Reps:      2,
		BaseSeed:  37,
		Telemetry: true,
	}}
}

// runGoldenRows runs the golden-rows specs through one DirCache rooted at
// dir and returns the JSONL rows and the engine summaries.
func runGoldenRows(t *testing.T, dir string) ([]byte, []Summary) {
	t.Helper()
	cache, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var sums []Summary
	for _, spec := range goldenRowsSpecs() {
		sink := NewJSONLSink(&buf)
		sum, err := (&Engine{Workers: 2, Cache: cache, Sinks: []Sink{sink}}).Run(spec)
		if err == nil {
			err = sink.Flush()
		}
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sums = append(sums, sum)
	}
	return buf.Bytes(), sums
}

// entryLines renders a cache directory's entries as one "<file> <bytes>"
// line each, sorted by file name. Entries carry no newline, so each line
// holds one file's exact bytes.
func entryLines(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(b, '\n') {
			t.Fatalf("%s holds a newline", name)
		}
		out.WriteString(filepath.Base(name))
		out.WriteByte(' ')
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/<file>, or rewrites the fixture
// under -update-golden.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
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
		t.Fatalf("%s diverged from the committed bytes.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestRowsAndEntriesGolden pins the bytes of the JSONL rows and of the
// DirCache entries a small sweep writes, and checks that a warm re-run
// emits the cold run's rows byte for byte from the cache alone.
func TestRowsAndEntriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps are not -short")
	}
	dir := t.TempDir()
	cold, sums := runGoldenRows(t, dir)
	for _, line := range bytes.Split(bytes.TrimSpace(cold), []byte("\n")) {
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.Truncated || r.Delivered != r.Job.Measure {
			t.Fatalf("job %d delivered %d of %d (truncated %v): the fixture must not stall",
				r.Job.Index, r.Delivered, r.Job.Measure, r.Truncated)
		}
	}
	for _, s := range sums {
		if s.Executed != s.Total {
			t.Fatalf("cold run: %+v, want every job executed", s)
		}
	}
	checkGolden(t, "golden_rows.jsonl", cold)
	checkGolden(t, "golden_entries.txt", entryLines(t, dir))

	warm, sums := runGoldenRows(t, dir)
	for _, s := range sums {
		if s.CacheHits != s.Total {
			t.Fatalf("warm run: %+v, want every job from the cache", s)
		}
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("warm rows differ from cold rows:\n--- warm ---\n%s--- cold ---\n%s", warm, cold)
	}
}

// asStored returns o as an entry stores it: a non-finite Float is written
// as null and read back as NaN.
func asStored(o Outcome) Outcome {
	for _, f := range []*Float{&o.SimLatency, &o.SimSourceWait, &o.SimPOut} {
		if math.IsInf(float64(*f), 0) {
			*f = Float(math.NaN())
		}
	}
	return o
}

// sameOutcome reports whether a and b agree bit for bit, NaN payloads
// aside (every NaN is one value in an entry).
func sameOutcome(a, b Outcome) bool {
	same := func(x, y Float) bool {
		if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) {
			return math.IsNaN(float64(x)) && math.IsNaN(float64(y))
		}
		return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	}
	if !same(a.SimLatency, b.SimLatency) || !same(a.SimSourceWait, b.SimSourceWait) ||
		!same(a.SimPOut, b.SimPOut) || a.Delivered != b.Delivered || a.Truncated != b.Truncated {
		return false
	}
	if (a.Telemetry == nil) != (b.Telemetry == nil) {
		return false
	}
	if a.Telemetry == nil {
		return true
	}
	ja, _ := json.Marshal(a.Telemetry)
	jb, _ := json.Marshal(b.Telemetry)
	return bytes.Equal(ja, jb)
}

// TestDirCacheReadsMarshaledEntries checks that DirCache.Get decodes entries
// written by json.Marshal of an Outcome, as every DirCache has written
// them, to bit-identical outcomes: the committed golden entries against the
// golden rows' outcomes, and edge-case values written here.
func TestDirCacheReadsMarshaledEntries(t *testing.T) {
	rows := map[string]Outcome{}
	f, err := os.Open(filepath.Join("testdata", "golden_rows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		rows[r.Job.Key()] = r.Outcome
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_entries.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("%d golden entries for %d golden rows", len(lines), len(rows))
	}
	for _, line := range lines {
		name, entry, _ := strings.Cut(line, " ")
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		key := strings.TrimSuffix(name, ".json")
		want, ok := rows[key]
		if !ok {
			t.Fatalf("golden entry %s has no golden row", name)
		}
		got, ok := c.Get(key)
		if !ok || !sameOutcome(got, want) {
			t.Errorf("entry %s: Get = %+v, %v; the row carries %+v", name, got, ok, want)
		}
	}

	tel := &mcsim.TelemetrySummary{
		Tiers: []mcsim.TierSummary{
			{Tier: "icn1", Utilization: 0.25, MaxUtilization: 1, BlockingFraction: 1e-9},
			{Tier: "icn2", Utilization: 5e-324, MaxUtilization: 0.5, BlockingFraction: 0},
		},
		Bottleneck:   "icn2",
		MeanQueueing: 12.5, MeanBlocking: 1e21, MeanTransmission: 0.1,
	}
	for i, o := range []Outcome{
		{},
		{SimLatency: Float(math.NaN()), SimSourceWait: Float(math.Inf(1)), SimPOut: Float(math.Inf(-1))},
		{SimLatency: Float(math.Copysign(0, -1)), SimSourceWait: 5e-324, SimPOut: 2.2250738585072014e-308},
		{SimLatency: 1e-7, SimSourceWait: 1e21, SimPOut: 1.7976931348623157e308, Delivered: -3, Truncated: true},
		{SimLatency: 34.2, SimSourceWait: 0.1 + 0.2, SimPOut: 1.0 / 3, Delivered: 100000, Telemetry: tel},
		{SimLatency: 1, Telemetry: &mcsim.TelemetrySummary{}},
	} {
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		key := "edge" + string(rune('a'+i))
		if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok || !sameOutcome(got, asStored(o)) {
			t.Errorf("entry %s: Get = %+v, %v; wrote %+v", b, got, ok, o)
		}
	}
}
