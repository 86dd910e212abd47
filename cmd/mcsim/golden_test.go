package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stdout_golden.txt")

// goldenCases are the flag lines whose stdout TestStdoutGolden pins, one
// per axis the command accepts: each line runs on the small phases of
// goldenPhases. "$DIR" names the test's temporary directory.
var goldenCases = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"org2-v", []string{"-org", "org2", "-v"}},
	{"hotspot", []string{"-pattern", "hotspot:0.3"}},
	{"cluster-local-random-up-v", []string{"-pattern", "cluster-local:0.6", "-routing", "random-up", "-v"}},
	{"jellyfish", []string{"-topo", "jellyfish"}},
	{"jellyfish-seed-dragonfly", []string{"-topo", "jellyfish.s7+dragonfly"}},
	{"mmpp", []string{"-arrival", "mmpp:16:32"}},
	{"deterministic-bimodal", []string{"-arrival", "deterministic", "-sizes", "bimodal:8:128:0.2"}},
	{"geometric", []string{"-sizes", "geometric:32"}},
	{"links-icn2", []string{"-org", "org2", "-links", "icn2=0.04/0.02/0.004"}},
	{"cluster-link-overrides", []string{"-org", "m=4:2x2@icn1=0.04/0.02/0.004,2x3@ecn1=0.04/0.02/0.004"}},
	{"icn2topo-dragonfly", []string{"-org", "m=4@icn2topo=dragonfly:2x2,2x3"}},
	{"rate-factors", []string{"-org", "m=4:2x2@2,2x3@0.5"}},
	{"geometry", []string{"-m", "16", "-lm", "128"}},
	{"reps3", []string{"-reps", "3"}},
	{"telemetry-stdout", []string{"-telemetry", "-"}},
	{"record", []string{"-topo", "jellyfish", "-arrival", "mmpp:16:32", "-record", "$DIR/run.jsonl"}},
}

// goldenPhases are the small phases every golden case runs at.
var goldenPhases = []string{"-org", "m=4:2x2,2x3", "-lambda", "2e-4", "-warmup", "100", "-measure", "1000", "-drain", "100"}

// wallTime matches the wall-clock figure of a latency report, the only
// part of the output that differs between runs.
var wallTime = regexp.MustCompile(`wall=[^ \n]+`)

// TestStdoutGolden pins the command's stdout, wall times masked, for every
// case of goldenCases, then replays the recorded trace: the replay's
// output and a digest of the recorded events (the trace without its
// header line) are pinned too.
func TestStdoutGolden(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	runCase := func(name string, args []string) {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		out := wallTime.ReplaceAllString(stdout.String(), "wall=<masked>")
		fmt.Fprintf(&got, "=== %s\n%s", name, strings.ReplaceAll(out, dir, "$DIR"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, c := range goldenCases {
		args := append([]string{}, goldenPhases...)
		for _, a := range c.args {
			args = append(args, strings.ReplaceAll(a, "$DIR", dir))
		}
		runCase(c.name, args)
	}
	runCase("replay", []string{"-replay", filepath.Join(dir, "run.jsonl")})
	fmt.Fprintf(&got, "=== files\n")
	fmt.Fprintf(&got, "run.jsonl events sha256 %s\n", eventsDigest(t, filepath.Join(dir, "run.jsonl")))

	path := filepath.Join("testdata", "stdout_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("stdout differs from %s at line %d:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}

// eventsDigest returns the SHA-256 of a recorded trace's event lines: every
// line after the header.
func eventsDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	sc := bufio.NewScanner(f)
	for first := true; sc.Scan(); first = false {
		if !first {
			h.Write(sc.Bytes())
			h.Write([]byte{'\n'})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
