package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcnet/internal/mcsim"
)

// TestTelemetryReplayBitExact records a telemetry-enabled run and replays it
// from the serialized trace with telemetry on again: both the Result and the
// full marshaled TelemetryReport must match byte for byte. Telemetry reads
// the same deterministic event stream, so any divergence means the collector
// perturbed the simulation or depends on wall-clock state.
func TestTelemetryReplayBitExact(t *testing.T) {
	spec := Spec{
		Name:   "tele-rt",
		Orgs:   []string{"m=4:2x1,2x2@2"},
		Loads:  Loads{Lambdas: []float64{4e-4}},
		Warmup: 50, Measure: 400, Drain: 50,
		Model: "none",
	}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	cfg, err := j.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = &mcsim.TelemetryConfig{}
	sim, rsim := recordAndReplay(t, j, cfg)

	origRep, err := json.Marshal(sim.Telemetry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	replayRep, err := json.Marshal(rsim.Telemetry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origRep, replayRep) {
		t.Errorf("telemetry report diverged across replay:\n original %s\n replayed %s", origRep, replayRep)
	}
}
