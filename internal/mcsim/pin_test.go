package mcsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"mcnet/internal/obs"
	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// TestEventCountAndTelemetryPinned pins what the goldens would otherwise be
// the only guard of: the scheduler's executed-event count, the exact stop
// time and the full telemetry report (tiers, histograms, decomposition and
// the time series, whose sampling points are event counts). A change to how the engine schedules its events — even one
// that preserves every latency — moves at least one of these.
//
// The run-end digest covers the report without the fields sampled on the
// event stride (events, series_every, series and the occupancy
// histograms): it moves only if a simulated statistic does, so a change
// that dispatches fewer events for the same simulation keeps it while
// re-pinning the event-counted digests.
func TestEventCountAndTelemetryPinned(t *testing.T) {
	org2Jelly := system.Table1Org2()
	if err := system.ApplyTopologyAxis(&org2Jelly, "jellyfish"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		cfg       Config
		events    uint64
		simTime   uint64 // math.Float64bits of Result.SimTime
		telemetry string // SHA-256 of the JSON TelemetryReport
		runEnd    string // SHA-256 of the JSON TelemetryReport minus its event-stride fields
	}{
		{
			name: "org1-fattree-poisson",
			cfg: Config{
				Org: system.Table1Org1(), Par: units.Default(), LambdaG: 0.00032298,
				Warmup: 200, Measure: 2000, Drain: 200, Seed: 7,
			},
			events:    29307,
			simTime:   0x40b8585308058174,
			telemetry: "77024013f679a0b5e9f21b9f99eeda1f613c6a845dcf7597414e756a08b0ae27",
			runEnd:    "c49c537ed2b2f09e84cb6870778e43b4e66d5e62f6100ea857bd61b764490bb6",
		},
		{
			name: "org2-jellyfish-mmpp-bimodal",
			cfg: Config{
				Org: org2Jelly, Par: units.Default(), LambdaG: 2e-4,
				Warmup: 200, Measure: 2000, Drain: 200, Seed: 11,
				Arrival: workload.MMPP{Peak: 8, Burst: 16},
				Sizes:   workload.Bimodal{Short: 8, Long: 128, PLong: 0.2},
			},
			events:    39113,
			simTime:   0x40d4b2db9e95ff34,
			telemetry: "cbe552f680f0559c3ce69f29ff27ea1255131096945020ac90e685720c0f841e",
			runEnd:    "adde971fac0f5e14ea7e3d8771b7a74e7c7665b354de24363e8b9cf693e0eb93",
		},
		{
			// Near saturation (≈0.95× the model's Org2 saturation load of
			// 1.0582e-3) about a fifth of the ≈36,500 channel releases find
			// a worm waiting and so run as events.
			name: "org2-fattree-near-saturation-bimodal",
			cfg: Config{
				Org: system.Table1Org2(), Par: units.Default(), LambdaG: 1.0053e-3,
				Warmup: 200, Measure: 2000, Drain: 200, Seed: 13,
				Sizes: workload.Bimodal{Short: 8, Long: 128, PLong: 0.2},
			},
			events:    49574,
			simTime:   0x40c3639a80089a5a,
			telemetry: "ad6304992ffcfeb89579254770707c15d100f55ad551f7d0d74d19c6b11a94ed",
			runEnd:    "e0b0d5fb1e155876cbd26a779dd6602cbe53fb02cba7390e1b298f3e772440f1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			// Small strides put many sampling points and a series
			// compaction inside a short run.
			cfg.Telemetry = &TelemetryConfig{SampleEvery: 1000, SeriesCap: 16}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := json.Marshal(sim.Telemetry().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			teleSum := sha256.Sum256(rep)
			end := sim.Telemetry().Snapshot()
			end.Events, end.SeriesEvery, end.Series = 0, 0, nil
			for i := range end.Tiers {
				end.Tiers[i].Occupancy = obs.HistSnapshot{}
			}
			rep, err = json.Marshal(end)
			if err != nil {
				t.Fatal(err)
			}
			endSum := sha256.Sum256(rep)
			gotEnd := hex.EncodeToString(endSum[:])
			gotTele := hex.EncodeToString(teleSum[:])
			if res.Events != tc.events {
				t.Errorf("Result.Events = %d, want %d", res.Events, tc.events)
			}
			if bits := math.Float64bits(res.SimTime); bits != tc.simTime {
				t.Errorf("Result.SimTime bits = %#x, want %#x", bits, tc.simTime)
			}
			if gotTele != tc.telemetry {
				t.Errorf("TelemetryReport digest = %s, want %s", gotTele, tc.telemetry)
			}
			if gotEnd != tc.runEnd {
				t.Errorf("run-end TelemetryReport digest = %s, want %s", gotEnd, tc.runEnd)
			}
		})
	}
}
