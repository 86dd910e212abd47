package sweep

import (
	"bytes"
	"strings"
	"testing"

	"mcnet/internal/mcsim"
	"mcnet/internal/workload"
)

// recordAndReplay runs cfg (job j's Config plus any hooks) while recording
// its generation stream under j's trace header, parses the serialized trace
// back, checks that the header survived, and replays it through
// ReplayConfig with cfg's telemetry setting. It fails the test unless the
// replayed run reproduces the original latency summary exactly, and returns
// both simulators after their runs.
func recordAndReplay(t *testing.T, j Job, cfg mcsim.Config) (orig, rep *mcsim.Sim) {
	t.Helper()
	hdr, err := j.TraceHeader()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := workload.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Record = func(e workload.Event) {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	orig, err = mcsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origRes, err := orig.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := workload.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header != hdr {
		t.Fatalf("header round trip:\n got %+v\nwant %+v", tr.Header, hdr)
	}
	repCfg, err := ReplayConfig(tr)
	if err != nil {
		t.Fatal(err)
	}
	repCfg.Telemetry = cfg.Telemetry
	rep, err = mcsim.New(repCfg)
	if err != nil {
		t.Fatal(err)
	}
	repRes, err := rep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repRes.Latency != origRes.Latency || repRes.SourceWait != origRes.SourceWait || repRes.Events != origRes.Events {
		t.Fatalf("replayed run diverged:\n original %+v (%d events)\n replayed %+v (%d events)",
			origRes.Latency, origRes.Events, repRes.Latency, repRes.Events)
	}
	return orig, rep
}

// TestTraceHeaderReplayRoundTrip records one workload job's generation
// stream through the trace serialization and replays it from the parsed
// bytes: the replayed run must reproduce the original latency summary
// exactly, proving the header carries the full run identity.
func TestTraceHeaderReplayRoundTrip(t *testing.T) {
	spec := Spec{
		Name:     "trace-rt",
		Orgs:     []string{"m=4:2x1,2x2@2"},
		Arrivals: []string{"mmpp:8:16"},
		Sizes:    []string{"bimodal:8:128:0.2"},
		Routing:  []string{"random-up"},
		Links:    []string{"icn2=0.04/0.02/0.004"},
		Loads:    Loads{Lambdas: []float64{2e-4}},
		Warmup:   50, Measure: 400, Drain: 50,
		Model: "none",
	}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if j.Arrival != "mmpp:8:16" || j.SizeDist != "bimodal:8:128:0.2" {
		t.Fatalf("job workload fields = %q/%q, want canonical axis values", j.Arrival, j.SizeDist)
	}
	if j.Links != "icn2=0.04/0.02/0.004" {
		t.Fatalf("job links = %q, want the canonical axis value", j.Links)
	}
	cfg, err := j.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Par.Tiers.Homogeneous() {
		t.Fatal("job params lost the tier overrides")
	}
	recordAndReplay(t, j, cfg)
}

// TestTraceHeaderKeepsTopology records a job on the Jellyfish topology axis:
// the header's organization must carry the topology, so the replay runs on
// the same switch graphs and reproduces the run bit-exactly.
func TestTraceHeaderKeepsTopology(t *testing.T) {
	spec := Spec{
		Name:       "trace-topo",
		Orgs:       []string{"m=4:2x2,2x3"},
		Topologies: []string{"jellyfish"},
		Loads:      Loads{Lambdas: []float64{2e-4}},
		Warmup:     50, Measure: 400, Drain: 50,
		Model: "none",
	}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	hdr, err := j.TraceHeader()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hdr.Org, "@topo=jellyfish") {
		t.Fatalf("trace header org %q lost the jellyfish topology", hdr.Org)
	}
	cfg, err := j.Config()
	if err != nil {
		t.Fatal(err)
	}
	recordAndReplay(t, j, cfg)
}
