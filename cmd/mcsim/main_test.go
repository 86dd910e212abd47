package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a small organization at a few hundred messages: each run takes
// milliseconds.
var tiny = []string{"-org", "m=4:2x2,2x3", "-lambda", "2e-4", "-warmup", "50", "-measure", "400", "-drain", "50"}

func runMcsim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(append(append([]string{}, tiny...), args...), &stdout, &stderr)
	return stdout.String(), err
}

// latencyLine returns the "rep 0 (seed …): mean=…" line of a run's output.
func latencyLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "rep 0 (seed ") {
			return line
		}
	}
	t.Fatalf("no latency line in output:\n%s", out)
	return ""
}

// TestPatternSyntax checks that -pattern uses the sweep grammar: fractions
// outside [0,1] and the old "local:" spelling are rejected.
func TestPatternSyntax(t *testing.T) {
	for _, bad := range []string{"hotspot:1.5", "local:0.6"} {
		if _, err := runMcsim(t, "-pattern", bad); err == nil {
			t.Errorf("-pattern %s accepted", bad)
		}
	}
	out, err := runMcsim(t, "-pattern", "cluster-local:0.6")
	if err != nil {
		t.Fatalf("-pattern cluster-local:0.6: %v", err)
	}
	latencyLine(t, out)
}

func TestRoutingRandomUp(t *testing.T) {
	out, err := runMcsim(t, "-routing", "random-up")
	if err != nil {
		t.Fatalf("-routing random-up: %v", err)
	}
	if !strings.Contains(out, "routing=random-up") {
		t.Errorf("parameters line does not name the routing:\n%s", out)
	}
	latencyLine(t, out)
}

// TestJellyfishRecordReplay records a run on Jellyfish cluster networks and
// replays the trace: the trace header must carry the topology, so the
// replay prints the same latency line.
func TestJellyfishRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	rec, err := runMcsim(t, "-topo", "jellyfish", "-record", trace)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-replay", trace}, &stdout, &stderr); err != nil {
		t.Fatalf("replay: %v", err)
	}
	rep := stdout.String()
	if !strings.Contains(rep, "@topo=jellyfish") {
		t.Errorf("replayed org lost the topology:\n%s", rep)
	}
	if got, want := latencyLine(t, rep), latencyLine(t, rec); got != want {
		t.Errorf("replay latency line differs:\n got %s\nwant %s", got, want)
	}
}

// TestZeroPhasesRejected: a sweep spec reads all-zero phases as unset and
// runs the paper's, but -measure 0 on the command line is an error.
func TestZeroPhasesRejected(t *testing.T) {
	if _, err := runMcsim(t, "-warmup", "0", "-measure", "0", "-drain", "0"); err == nil {
		t.Error("-warmup 0 -measure 0 -drain 0 accepted")
	}
}

// TestStalledWarning checks that a replication whose network deadlocks
// (Org1 with a dragonfly ICN2, see mcsim.TestStalledRun) says so before its
// partial results, and that a run that delivers everything does not.
func TestStalledWarning(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-org", "org1", "-topo", "fattree+dragonfly", "-lambda", "0.00035623125",
		"-warmup", "200", "-measure", "2000", "-drain", "200", "-seed", "4343180570121319839"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	const want = "rep 0: warning: stalled with 1622 worms deadlocked in the network, 570 of 2000 measured messages delivered (partial results follow)\n"
	if !strings.Contains(stdout.String(), want) {
		t.Errorf("no stall warning in output:\n%s", stdout.String())
	}
	out, err := runMcsim(t)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "stalled") {
		t.Errorf("a complete run warns of a stall:\n%s", out)
	}
}
