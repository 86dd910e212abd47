package mcsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// runReleased builds, runs and releases one simulation, and returns its
// Result printed with %#v (every float in its shortest exact form, so equal
// strings mean bit-identical fields) and the SHA-256 of its JSON telemetry
// report ("" with telemetry off).
func runReleased(t *testing.T, cfg Config) (result, telemetry string) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tele := sim.Telemetry(); tele != nil {
		rep, err := json.Marshal(tele.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(rep)
		telemetry = hex.EncodeToString(sum[:])
	}
	sim.Release()
	return fmt.Sprintf("%#v", res), telemetry
}

// TestReleaseReuseChangesNoAnswer: New reuses the arrays of released runs,
// whatever organization and workload grew them, and no answer may depend
// on what ran before. A mixed sequence of configurations runs forward and
// then reversed, after a run cut short by MaxEvents whose release hands
// back busy channels, waiting queues, worms in flight and non-empty event
// lists; every Result field and every telemetry digest must be identical
// in both orders.
func TestReleaseReuseChangesNoAnswer(t *testing.T) {
	axis := func(org system.Organization, a string) system.Organization {
		if err := system.ApplyTopologyAxis(&org, a); err != nil {
			t.Fatal(err)
		}
		return org
	}
	bimodal := workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}
	nearSat := Config{
		Org: system.Table1Org2(), Par: units.Default(), LambdaG: 1.0053e-3,
		Warmup: 200, Measure: 2000, Drain: 200, Seed: 13, Sizes: bimodal,
	}
	jelly := Config{
		Org: axis(system.Table1Org2(), "jellyfish"), Par: units.Default(), LambdaG: 2e-4,
		Warmup: 200, Measure: 2000, Drain: 200, Seed: 11,
		Arrival: workload.MMPP{Peak: 8, Burst: 16}, Sizes: bimodal,
	}
	var trace []workload.Event
	rec := jelly
	rec.Record = func(e workload.Event) { trace = append(trace, e) }
	if _, err := Run(rec); err != nil {
		t.Fatal(err)
	}
	replay := jelly
	replay.Arrival, replay.Sizes, replay.Replay = nil, nil, trace

	cases := []struct {
		name string
		cfg  Config
	}{
		{"org1", Config{
			Org: system.Table1Org1(), Par: units.Default(), LambdaG: 0.00032298,
			Warmup: 200, Measure: 2000, Drain: 200, Seed: 7,
		}},
		{"org2-near-saturation", nearSat},
		{"org2-jellyfish-mmpp", jelly},
		{"org2-dragonfly", Config{
			Org: axis(system.Table1Org2(), "fattree+dragonfly"), Par: units.Default(), LambdaG: 3e-4,
			Warmup: 200, Measure: 2000, Drain: 200, Seed: 5,
		}},
		{"org1-mmpp-bimodal", Config{
			Org: system.Table1Org1(), Par: units.Default(), LambdaG: 0.00032298,
			Warmup: 200, Measure: 2000, Drain: 200, Seed: 7,
			Arrival: workload.MMPP{Peak: 16, Burst: 32}, Sizes: bimodal,
		}},
		{"trace-replay", replay},
		{"small-org", smallConfig(6e-4, 3)},
	}
	// Telemetry on for every other case, so collectors are built over
	// reused channel tables and the plain runs follow telemetry runs.
	for i := range cases {
		if i%2 == 0 {
			cases[i].cfg.Telemetry = &TelemetryConfig{SampleEvery: 1000, SeriesCap: 16}
		}
	}

	cut := nearSat
	cut.MaxEvents = 20000
	sim, err := New(cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut run: err = %v, want ErrTruncated", err)
	}
	net := sim.Network()
	busy, queued := 0, 0
	for c := int32(0); c < int32(net.Channels()); c++ {
		if net.Busy(c) {
			busy++
		}
		queued += net.QueueLen(c)
	}
	if net.InFlight() == 0 || busy == 0 || queued == 0 {
		t.Fatalf("cut run left %d worms in flight, %d busy channels, %d queued worms; want all > 0",
			net.InFlight(), busy, queued)
	}
	sim.Release()

	type outcome struct{ result, telemetry string }
	forward := make([]outcome, len(cases))
	for i, c := range cases {
		forward[i].result, forward[i].telemetry = runReleased(t, c.cfg)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		res, tele := runReleased(t, cases[i].cfg)
		if res != forward[i].result {
			t.Errorf("%s: Result depends on the runs before it:\nforward  %s\nreversed %s",
				cases[i].name, forward[i].result, res)
		}
		if tele != forward[i].telemetry {
			t.Errorf("%s: telemetry digest %s reversed, %s forward", cases[i].name, tele, forward[i].telemetry)
		}
	}
}

// TestReleaseKeepsNothingOfTheRun: Release clears the Sim, so a later use
// panics, and the message slabs it hands back hold no worm that points at
// the finished run.
func TestReleaseKeepsNothingOfTheRun(t *testing.T) {
	cfg := smallConfig(6e-4, 3)
	cfg.Telemetry = &TelemetryConfig{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	tele := sim.Telemetry()
	want := tele.Snapshot()
	sim.Release()
	if sim.Network() != nil || sim.System() != nil || sim.Telemetry() != nil {
		t.Error("Release left the Sim's network, system or telemetry set")
	}
	if got := tele.Snapshot(); got.Events != want.Events || got.Decomposition != want.Decomposition {
		t.Error("the collector's snapshot changed after Release")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run after Release did not panic")
			}
		}()
		sim.Run()
	}()

	slabs := msgSlabs.Get(0)
	defer msgSlabs.Put(slabs)
	if cap(slabs) == 0 {
		t.Fatal("Release handed back no message slabs")
	}
	for _, sl := range slabs[:cap(slabs)] {
		for i := range sl.msgs {
			if w := &sl.msgs[i].worm; w.Owner != nil || w.Path != nil || w.OnDone != nil {
				t.Fatal("a released message slab still points into the finished run")
			}
		}
	}
}
