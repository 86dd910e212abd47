// Package benchfmt parses the benchmark artifacts `make bench` produces —
// raw `go test -json` streams (BENCH_<rev>.json) and the condensed
// summaries next to them (BENCH_<rev>.summary.json) — and assembles them
// into the perf-over-time report (TrajectoryReport) that cmd/benchdiff and
// internal/repro write.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcnet/internal/plot"
)

// Bench is one benchmark's parsed measurements. BytesOp and AllocsOp are -1
// when the artifact does not carry them (a stream captured without
// -benchmem, or a summary written from one).
type Bench struct {
	Name     string
	NsOp     float64
	BytesOp  float64
	AllocsOp float64
}

// Parse extracts benchmark results from a `go test -json` stream. A result
// is an output event whose payload carries an "ns/op" measurement; the
// benchmark name comes from the event's Test field (or from the payload
// itself when go test leaves the field empty, as it does for repeats after
// the first). The payload's -<GOMAXPROCS> suffix is stripped so artifacts
// from differently sized machines stay comparable. Results are returned in first-seen order;
// repeated measurements of one benchmark (e.g. -count > 1) keep the
// minimum ns/op, the conventional noise-resistant choice.
func Parse(r io.Reader) ([]Bench, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	index := make(map[string]int)
	var out []Bench
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e struct {
			Action string `json:"Action"`
			Test   string `json:"Test"`
			Output string `json:"Output"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("benchfmt: not a go test -json stream: %v", err)
		}
		if e.Action != "output" || !strings.Contains(e.Output, "ns/op") {
			continue
		}
		b, ok := parseResultLine(e.Test, e.Output)
		if !ok {
			continue
		}
		if i, dup := index[b.Name]; dup {
			if b.NsOp < out[i].NsOp {
				out[i] = b
			}
			continue
		}
		index[b.Name] = len(out)
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("benchfmt: no benchmark results found")
	}
	return out, nil
}

// summaryRow is one benchmark of a summary document. BytesOp and AllocsOp
// are pointers so a stream captured without -benchmem omits the keys
// instead of reporting fake zeros; summaries written before bytes_op
// existed carry allocs_op alone.
type summaryRow struct {
	NsOp     float64  `json:"ns_op"`
	BytesOp  *float64 `json:"bytes_op,omitempty"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
}

// WriteSummary writes the condensed BENCH_<rev>.summary.json document:
// benchmark name → ns/op, B/op and allocs/op, sorted by name so repeated
// runs diff cleanly.
func WriteSummary(w io.Writer, benches []Bench) error {
	opt := func(v float64) *float64 {
		if v < 0 {
			return nil
		}
		return &v
	}
	doc := make(map[string]summaryRow, len(benches))
	for _, b := range benches {
		doc[b.Name] = summaryRow{NsOp: b.NsOp, BytesOp: opt(b.BytesOp), AllocsOp: opt(b.AllocsOp)}
	}
	out, err := json.MarshalIndent(doc, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// ParseSummary reads a condensed BENCH_<rev>.summary.json document
// (benchmark name → ns/op, B/op, allocs/op), returning benches sorted by
// name. A measurement the document lacks is -1.
func ParseSummary(r io.Reader) ([]Bench, error) {
	var doc map[string]summaryRow
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("benchfmt: not a summary document: %v", err)
	}
	if len(doc) == 0 {
		return nil, errors.New("benchfmt: empty summary document")
	}
	val := func(p *float64) float64 {
		if p == nil {
			return -1
		}
		return *p
	}
	out := make([]Bench, 0, len(doc))
	for name, row := range doc {
		out = append(out, Bench{Name: name, NsOp: row.NsOp, BytesOp: val(row.BytesOp), AllocsOp: val(row.AllocsOp)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ParseFile parses one artifact, dispatching on its filename:
// *.summary.json as a condensed summary, anything else as a raw stream.
func ParseFile(path string) ([]Bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".summary.json") {
		return ParseSummary(f)
	}
	return Parse(f)
}

// parseResultLine parses one benchmark result payload, e.g.
//
//	"BenchmarkName-8\t 7731849\t       150.8 ns/op\t      24 B/op\t       1 allocs/op\n"
//
// The name is the event's Test field, which go test writes without the
// -<GOMAXPROCS> suffix (a trailing -<digits> there belongs to the name),
// or, when the field is empty, the payload's first field less that suffix.
func parseResultLine(test, output string) (Bench, bool) {
	fields := strings.Fields(output)
	name := test
	start := 0
	if len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
		if name == "" {
			name = stripProcs(fields[0])
		}
		start = 1
	}
	if name == "" {
		return Bench{}, false
	}
	b := Bench{Name: name, BytesOp: -1, AllocsOp: -1}
	found := false
	for i := start + 1; i < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			continue
		}
		switch fields[i] {
		case "ns/op":
			b.NsOp = v
			found = true
		case "B/op":
			b.BytesOp = v
		case "allocs/op":
			b.AllocsOp = v
		}
	}
	return b, found
}

// stripProcs removes the -<GOMAXPROCS> suffix from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Artifact is one revision's benchmark measurements, as recovered from a
// BENCH_<rev>.json (or .summary.json) file.
type Artifact struct {
	// Rev is the revision label from the filename ("7e70fd4", possibly with
	// a -dirty suffix).
	Rev     string
	Path    string
	Benches []Bench
}

// RevFromPath extracts the revision label from a BENCH artifact filename;
// ok is false when the name does not follow the BENCH_<rev>[.summary].json
// convention.
func RevFromPath(path string) (string, bool) {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "BENCH_") {
		return "", false
	}
	rev := strings.TrimPrefix(base, "BENCH_")
	rev = strings.TrimSuffix(rev, ".json")
	rev = strings.TrimSuffix(rev, ".summary")
	if rev == "" {
		return "", false
	}
	return rev, true
}

// LoadArtifacts parses the given artifact files into per-revision
// measurements. When a revision appears both as a raw stream and as a
// summary, the raw stream wins (older summaries lack B/op); duplicates of the
// same form keep the first path given. Files whose names do not follow the
// BENCH_<rev> convention are rejected.
func LoadArtifacts(paths []string) ([]Artifact, error) {
	byRev := make(map[string]int)
	var out []Artifact
	for _, path := range paths {
		rev, ok := RevFromPath(path)
		if !ok {
			return nil, fmt.Errorf("benchfmt: %s does not follow the BENCH_<rev>.json naming convention", path)
		}
		raw := !strings.HasSuffix(path, ".summary.json")
		if i, dup := byRev[rev]; dup {
			if !raw || !strings.HasSuffix(out[i].Path, ".summary.json") {
				continue // keep the existing (raw, or equally good) artifact
			}
			benches, err := ParseFile(path)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
			}
			out[i] = Artifact{Rev: rev, Path: path, Benches: benches}
			continue
		}
		benches, err := ParseFile(path)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
		}
		byRev[rev] = len(out)
		out = append(out, Artifact{Rev: rev, Path: path, Benches: benches})
	}
	return out, nil
}

// GitRevOrder returns the repository's first-parent history as abbreviated
// hashes, oldest first, for ordering artifacts by the revision they
// measure. It shells out to git; outside a repository (or without git) it
// returns an error and callers fall back to the order given.
func GitRevOrder(dir string) ([]string, error) {
	cmd := exec.Command("git", "rev-list", "--first-parent", "--abbrev-commit", "--abbrev=7", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchfmt: git rev-list: %w", err)
	}
	lines := strings.Fields(strings.TrimSpace(string(out)))
	// rev-list emits newest first; reverse into chronological order.
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	return lines, nil
}

// SortByRevOrder orders artifacts to match the given revision sequence
// (oldest first, as from GitRevOrder). A -dirty suffix is ignored for
// matching; artifacts whose revision is not in the sequence keep their
// relative order after all matched ones (they are likely newer than any
// committed revision). The sort is stable.
func SortByRevOrder(arts []Artifact, order []string) {
	pos := make(map[string]int, len(order))
	for i, rev := range order {
		pos[rev] = i
	}
	rank := func(a Artifact) int {
		rev := strings.TrimSuffix(a.Rev, "-dirty")
		if i, ok := pos[rev]; ok {
			return i
		}
		return len(order)
	}
	sort.SliceStable(arts, func(i, j int) bool { return rank(arts[i]) < rank(arts[j]) })
}

// Trajectory pivots per-revision artifacts into per-benchmark series
// aligned on the artifact order: revs[i] labels measurement i of every
// series, with NaN where a benchmark is absent from that revision.
// Benchmarks are sorted by name.
func Trajectory(arts []Artifact) (revs []string, names []string, nsOp, allocsOp map[string][]float64) {
	revs = make([]string, len(arts))
	nameSet := make(map[string]bool)
	for i, a := range arts {
		revs[i] = a.Rev
		for _, b := range a.Benches {
			nameSet[b.Name] = true
		}
	}
	names = make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	nsOp = make(map[string][]float64, len(names))
	allocsOp = make(map[string][]float64, len(names))
	for _, n := range names {
		ns := make([]float64, len(arts))
		al := make([]float64, len(arts))
		for i := range ns {
			ns[i], al[i] = math.NaN(), math.NaN()
		}
		nsOp[n], allocsOp[n] = ns, al
	}
	for i, a := range arts {
		for _, b := range a.Benches {
			nsOp[b.Name][i] = b.NsOp
			if b.AllocsOp >= 0 {
				allocsOp[b.Name][i] = b.AllocsOp
			}
		}
	}
	return revs, names, nsOp, allocsOp
}

// TrajectoryReport loads the given BENCH_<rev> artifacts, orders them by git
// first-parent history when available (argument order otherwise) and renders
// the perf-over-time report: a markdown table and a normalized ns/op chart.
// It lists only the benchmarks the newest artifact measures, so a deleted
// benchmark leaves the report with its code.
func TrajectoryReport(paths []string) (md, chart string, err error) {
	arts, err := LoadArtifacts(paths)
	if err != nil {
		return "", "", err
	}
	if order, err := GitRevOrder("."); err == nil {
		SortByRevOrder(arts, order)
	}
	md, chart = renderTrajectory(arts)
	return md, chart, nil
}

// renderTrajectory pivots ordered artifacts into the report's two forms,
// dropping every benchmark absent from the last artifact.
func renderTrajectory(arts []Artifact) (md, chart string) {
	revs, names, nsOp, allocsOp := Trajectory(arts)
	var series []plot.TrajectorySeries
	for _, n := range names {
		if math.IsNaN(nsOp[n][len(revs)-1]) {
			continue
		}
		series = append(series, plot.TrajectorySeries{Name: n, NsOp: nsOp[n], AllocsOp: allocsOp[n]})
	}
	return plot.TrajectoryMarkdown(revs, series), plot.TrajectoryChart(revs, series, 72, 16)
}
