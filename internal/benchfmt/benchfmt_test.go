package benchfmt

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream has the shape `go test -json -bench` writes: the Test field names
// the benchmark without the -<GOMAXPROCS> suffix the payload carries, and
// repeats after the first (-count > 1) come without a Test field. The
// sub-benchmark's own name ends in -<digits>, which is not a suffix.
const stream = `{"Action":"run","Test":"BenchmarkAnalyze"}
{"Action":"output","Test":"BenchmarkAnalyze","Output":"=== RUN   BenchmarkAnalyze\n"}
{"Action":"output","Test":"BenchmarkAnalyze","Output":"BenchmarkAnalyze\n"}
{"Action":"output","Test":"BenchmarkAnalyze","Output":"BenchmarkAnalyze-8   \t 7731849\t       150.8 ns/op\t      24 B/op\t       1 allocs/op\n"}
{"Action":"output","Output":"BenchmarkAnalyze-8   \t 8000000\t       140.2 ns/op\t      24 B/op\t       1 allocs/op\n"}
{"Action":"output","Test":"BenchmarkSim","Output":"BenchmarkSim-8   \t 1000\t       98765.0 ns/op\n"}
{"Action":"run","Test":"BenchmarkTopoBuild/dragonfly-32"}
{"Action":"output","Test":"BenchmarkTopoBuild/dragonfly-32","Output":"BenchmarkTopoBuild/dragonfly-32-8   \t 9000\t       1412.0 ns/op\n"}
{"Action":"output","Output":"BenchmarkTopoBuild/dragonfly-32-8   \t 9000\t       1388.5 ns/op\n"}
{"Action":"pass","Test":"BenchmarkAnalyze"}
`

func TestParseStream(t *testing.T) {
	benches, err := Parse(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("got %d benches, want 3: %+v", len(benches), benches)
	}
	a := benches[0]
	if a.Name != "BenchmarkAnalyze" || a.NsOp != 140.2 || a.AllocsOp != 1 || a.BytesOp != 24 {
		t.Errorf("first bench = %+v; want min-ns/op BenchmarkAnalyze with memstats", a)
	}
	s := benches[1]
	if s.Name != "BenchmarkSim" || s.NsOp != 98765 || s.AllocsOp != -1 {
		t.Errorf("second bench = %+v; want BenchmarkSim without memstats", s)
	}
	d := benches[2]
	if d.Name != "BenchmarkTopoBuild/dragonfly-32" || d.NsOp != 1388.5 {
		t.Errorf("third bench = %+v; want min-ns/op BenchmarkTopoBuild/dragonfly-32", d)
	}
}

func TestParseSummary(t *testing.T) {
	doc := `{"BenchmarkB":{"ns_op":10.5},"BenchmarkA":{"ns_op":5.25,"allocs_op":3}}`
	benches, err := ParseSummary(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 || benches[0].Name != "BenchmarkA" || benches[1].Name != "BenchmarkB" {
		t.Fatalf("got %+v, want A then B (sorted)", benches)
	}
	if benches[0].AllocsOp != 3 || benches[1].AllocsOp != -1 {
		t.Errorf("allocs = %g, %g; want 3 and -1 (absent)", benches[0].AllocsOp, benches[1].AllocsOp)
	}
	// A summary written before bytes_op existed reads B/op as absent.
	if benches[0].BytesOp != -1 || benches[1].BytesOp != -1 {
		t.Errorf("bytes = %g, %g; want -1 (absent) for both", benches[0].BytesOp, benches[1].BytesOp)
	}
}

// TestSummaryRoundTrip: WriteSummary keeps ns/op, B/op and allocs/op, and
// omits what the stream did not measure, so ParseSummary reads back the
// same benches.
func TestSummaryRoundTrip(t *testing.T) {
	want := []Bench{
		{Name: "BenchmarkA", NsOp: 5.25, BytesOp: 79103, AllocsOp: 59},
		{Name: "BenchmarkB", NsOp: 10.5, BytesOp: -1, AllocsOp: -1},
		{Name: "BenchmarkC", NsOp: 1, BytesOp: 0, AllocsOp: 0},
	}
	var buf strings.Builder
	if err := WriteSummary(&buf, []Bench{want[2], want[0], want[1]}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"bytes_op": 79103`) || strings.Count(buf.String(), "bytes_op") != 2 {
		t.Errorf("summary does not carry bytes_op for exactly the measured benches:\n%s", buf.String())
	}
	got, err := ParseSummary(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read back %d benches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bench %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("not json\n")); err == nil {
		t.Error("non-JSON stream parsed without error")
	}
	if _, err := Parse(strings.NewReader(`{"Action":"pass"}` + "\n")); err == nil {
		t.Error("stream without results parsed without error")
	}
	if _, err := ParseSummary(strings.NewReader("{}")); err == nil {
		t.Error("empty summary parsed without error")
	}
}

func TestRevFromPath(t *testing.T) {
	cases := map[string]string{
		"BENCH_7e70fd4.json":            "7e70fd4",
		"BENCH_7e70fd4.summary.json":    "7e70fd4",
		"some/dir/BENCH_abc-dirty.json": "abc-dirty",
		"NOTBENCH_x.json":               "",
		"BENCH_.json":                   "",
		"results.json":                  "",
	}
	for path, want := range cases {
		got, ok := RevFromPath(path)
		if want == "" {
			if ok {
				t.Errorf("RevFromPath(%q) accepted, want rejection", path)
			}
			continue
		}
		if !ok || got != want {
			t.Errorf("RevFromPath(%q) = %q, %t; want %q", path, got, ok, want)
		}
	}
}

func writeArtifacts(t *testing.T) (rawPath, summaryPath string) {
	t.Helper()
	dir := t.TempDir()
	rawPath = filepath.Join(dir, "BENCH_aaa1111.json")
	if err := os.WriteFile(rawPath, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	summaryPath = filepath.Join(dir, "BENCH_bbb2222.summary.json")
	doc := `{"BenchmarkAnalyze":{"ns_op":120.5,"allocs_op":0}}`
	if err := os.WriteFile(summaryPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return rawPath, summaryPath
}

func TestLoadArtifactsRawWinsOverSummary(t *testing.T) {
	rawPath, _ := writeArtifacts(t)
	// A summary companion of the SAME revision must lose to the raw stream
	// regardless of argument order.
	summaryTwin := strings.TrimSuffix(rawPath, ".json") + ".summary.json"
	if err := os.WriteFile(summaryTwin, []byte(`{"BenchmarkAnalyze":{"ns_op":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]string{{rawPath, summaryTwin}, {summaryTwin, rawPath}} {
		arts, err := LoadArtifacts(order)
		if err != nil {
			t.Fatal(err)
		}
		if len(arts) != 1 || arts[0].Path != rawPath {
			t.Errorf("order %v: artifacts = %+v, want the raw stream only", order, arts)
		}
	}
}

func TestLoadArtifactsRejectsForeignNames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifacts([]string{path}); err == nil {
		t.Error("foreign filename accepted")
	}
}

func TestSortByRevOrderAndTrajectory(t *testing.T) {
	arts := []Artifact{
		{Rev: "ccc3333", Benches: []Bench{{Name: "BenchmarkA", NsOp: 90, AllocsOp: 2}}},
		{Rev: "aaa1111-dirty", Benches: []Bench{{Name: "BenchmarkA", NsOp: 100, AllocsOp: -1}}},
		{Rev: "zzz9999", Benches: []Bench{{Name: "BenchmarkB", NsOp: 10, AllocsOp: 0}}},
	}
	SortByRevOrder(arts, []string{"aaa1111", "bbb2222", "ccc3333"})
	if arts[0].Rev != "aaa1111-dirty" || arts[1].Rev != "ccc3333" || arts[2].Rev != "zzz9999" {
		t.Fatalf("sorted order = %s,%s,%s; want aaa1111-dirty, ccc3333, zzz9999 (unknown last)",
			arts[0].Rev, arts[1].Rev, arts[2].Rev)
	}

	revs, names, nsOp, allocsOp := Trajectory(arts)
	if len(revs) != 3 || revs[0] != "aaa1111-dirty" {
		t.Fatalf("revs = %v", revs)
	}
	if len(names) != 2 || names[0] != "BenchmarkA" || names[1] != "BenchmarkB" {
		t.Fatalf("names = %v, want sorted A,B", names)
	}
	a := nsOp["BenchmarkA"]
	if a[0] != 100 || a[1] != 90 || !math.IsNaN(a[2]) {
		t.Errorf("BenchmarkA ns/op = %v, want [100 90 NaN]", a)
	}
	if al := allocsOp["BenchmarkA"]; !math.IsNaN(al[0]) || al[1] != 2 {
		t.Errorf("BenchmarkA allocs = %v, want [NaN 2 ...] (-1 means absent)", al)
	}
	if b := nsOp["BenchmarkB"]; !math.IsNaN(b[0]) || b[2] != 10 {
		t.Errorf("BenchmarkB ns/op = %v, want [NaN NaN 10]", b)
	}

	// The report lists only what the newest artifact measures: BenchmarkA
	// and BenchmarkGone (present only in the oldest) are deleted benchmarks.
	arts[0].Benches = append(arts[0].Benches, Bench{Name: "BenchmarkGone", NsOp: 50, AllocsOp: 1})
	md, chart := renderTrajectory(arts)
	for _, gone := range []string{"BenchmarkA", "BenchmarkGone"} {
		if strings.Contains(md, gone) || strings.Contains(chart, gone) {
			t.Errorf("report lists %s, which the newest artifact does not measure:\n%s\n%s", gone, md, chart)
		}
	}
	if !strings.Contains(md, "| BenchmarkB | zzz9999 | 10.0 | 0 |") || !strings.Contains(chart, "BenchmarkB") {
		t.Errorf("report misses BenchmarkB's newest row:\n%s\n%s", md, chart)
	}
}

func TestGitRevOrder(t *testing.T) {
	// The repo this test runs in is itself a git repository; the order must
	// be non-empty and oldest-first (the first commit has no parent).
	order, err := GitRevOrder(".")
	if err != nil {
		t.Skipf("not in a git repository: %v", err)
	}
	if len(order) == 0 {
		t.Fatal("empty rev order in a git repository")
	}
}
