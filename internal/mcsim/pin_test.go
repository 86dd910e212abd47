package mcsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
)

// TestEventCountAndTelemetryPinned pins what the goldens would otherwise be
// the only guard of: the scheduler's executed-event count, the exact stop
// time, every OnProgress callback and the full telemetry report (tiers,
// histograms, decomposition and the time series, whose sampling points are
// event counts). A change to how the engine schedules its events — even one
// that preserves every latency — moves at least one of these.
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
		progress  string // SHA-256 of the OnProgress (events, time) stream
		telemetry string // SHA-256 of the JSON TelemetryReport
	}{
		{
			name: "org1-fattree-poisson",
			cfg: Config{
				Org: system.Table1Org1(), Par: units.Default(), LambdaG: 0.00032298,
				Warmup: 200, Measure: 2000, Drain: 200, Seed: 7,
			},
			events:    49689,
			simTime:   0x40b8585308058174,
			progress:  "31e49606db3e1ffcf46674f0ff7071a4f07efbeb7595f6d2b638eb68b508759e",
			telemetry: "1769031bcc85b421310588acc5624d918e82b4739b156c58020b9510db79ca76",
		},
		{
			name: "org2-jellyfish-mmpp-bimodal",
			cfg: Config{
				Org: org2Jelly, Par: units.Default(), LambdaG: 2e-4,
				Warmup: 200, Measure: 2000, Drain: 200, Seed: 11,
				Arrival: workload.MMPP{Peak: 8, Burst: 16},
				Sizes:   workload.Bimodal{Short: 8, Long: 128, PLong: 0.2},
			},
			events:    71463,
			simTime:   0x40d4b2db9e95ff34,
			progress:  "c2e64250a37b7b447cf115850f28230491582f01b1d3aa986c5dfdfa6b34015f",
			telemetry: "e9563cefd03339403901ecf7d5a18458ff5db784dcf6fd94021b258911505258",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			// Small strides put many sampling points and a series
			// compaction inside a short run.
			cfg.Telemetry = &TelemetryConfig{SampleEvery: 1000, SeriesCap: 16}
			progress := sha256.New()
			cfg.ProgressEvery = 4096
			cfg.OnProgress = func(events uint64, simTime float64) {
				var b [16]byte
				binary.LittleEndian.PutUint64(b[:8], events)
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(simTime))
				progress.Write(b[:])
			}
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
			gotProgress := hex.EncodeToString(progress.Sum(nil))
			gotTele := hex.EncodeToString(teleSum[:])
			if res.Events != tc.events {
				t.Errorf("Result.Events = %d, want %d", res.Events, tc.events)
			}
			if bits := math.Float64bits(res.SimTime); bits != tc.simTime {
				t.Errorf("Result.SimTime bits = %#x, want %#x", bits, tc.simTime)
			}
			if gotProgress != tc.progress {
				t.Errorf("OnProgress stream digest = %s, want %s", gotProgress, tc.progress)
			}
			if gotTele != tc.telemetry {
				t.Errorf("TelemetryReport digest = %s, want %s", gotTele, tc.telemetry)
			}
		})
	}
}
