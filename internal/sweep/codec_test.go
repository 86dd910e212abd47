package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"mcnet/internal/mcsim"
)

// FuzzResultCodec checks the row and entry codec against encoding/json: the
// encoders write what json.Marshal writes for any Result and Outcome, and
// fail where it fails; the entry decoder gives every encoded outcome back
// bit for bit (NaN and ±Inf as NaN) and accepts nothing but that form.
func FuzzResultCodec(f *testing.F) {
	bits := math.Float64bits
	f.Add("m=4:2x2,2x3", "uniform", "mmpp:8:16", "jellyfish", bits(19.647689636325527), bits(20.072424019523122),
		bits(0), bits(0.7625), bits(2e-4), bits(0.02), 400, false, false, false, false, "icn2", bits(0.25),
		[]byte(`{"sim_latency":20.072424019523122,"sim_source_wait":0,"sim_pout":0.7625,"delivered":400,"truncated":false}`))
	f.Add("org<1>&", "hotspot:0.3\n", "\xff\xfe", " ", bits(math.NaN()), bits(math.Inf(1)),
		bits(math.Copysign(0, -1)), uint64(1), bits(1e-7), bits(1e21), -3, true, true, true, true, "a\"b\\c", bits(5e-324),
		[]byte(`{"sim_latency":null,"sim_source_wait":1e-07,"sim_pout":-0,"delivered":0,"truncated":true,"telemetry":{"tiers":null}}`))
	f.Add("", "", "", "", bits(math.Inf(-1)), bits(1.7976931348623157e308), bits(2.2250738585072014e-308),
		bits(1e-6), bits(math.NaN()), bits(9.999999999999999e20), 0, false, true, false, true, "", bits(math.NaN()),
		[]byte(`{"sim_latency":1.0,"sim_source_wait":+1,"sim_pout":01,"delivered":-0,"truncated":false}`))
	f.Fuzz(func(t *testing.T, org, pattern, arrival, topo string, analysis, latency, wait, pout, lambda, alpha uint64,
		delivered int, truncated, saturated, stalled, telemetry bool, tier string, util uint64, entry []byte) {
		float := math.Float64frombits
		r := Result{
			Job: Job{
				Org: org, Flits: delivered, FlitBytes: -delivered, Pattern: pattern, Routing: tier,
				Arrival: arrival, SizeDist: pattern, Links: org, Topo: topo,
				Lambda: float(lambda), Rep: delivered, SimSeed: util,
				AlphaNet: float(alpha), AlphaSw: float(wait), BetaNet: float(pout),
				Warmup: 1, Measure: delivered, Drain: -1, Index: delivered, LoadIndex: 7,
			},
			Analysis:          Float(float(analysis)),
			AnalysisSaturated: saturated,
			Outcome: Outcome{
				SimLatency: Float(float(latency)), SimSourceWait: Float(float(wait)), SimPOut: Float(float(pout)),
				Delivered: delivered, Truncated: truncated,
			},
			Stalled: stalled,
			Cached:  truncated,
		}
		if telemetry {
			r.Telemetry = &mcsim.TelemetrySummary{
				Tiers:      []mcsim.TierSummary{{Tier: tier, Utilization: float(util), MaxUtilization: float(alpha)}},
				Bottleneck: tier, MeanQueueing: float(latency),
			}
		}

		want, werr := json.Marshal(r)
		got, gerr := appendResult(nil, &r)
		if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("row:\nappendResult %s (%v)\njson.Marshal %s (%v)", got, gerr, want, werr)
		}

		o := r.Outcome
		want, werr = json.Marshal(o)
		got, gerr = appendOutcome(nil, &o)
		if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("entry:\nappendOutcome %s (%v)\njson.Marshal %s (%v)", got, gerr, want, werr)
		}
		if werr == nil {
			// The telemetry digest is json.Unmarshal's to decode: compare it
			// with what json.Unmarshal makes of the entry (an invalid UTF-8
			// tier name comes back as U+FFFD either way).
			var ref Outcome
			if err := json.Unmarshal(got, &ref); err != nil {
				t.Fatal(err)
			}
			want := asStored(o)
			want.Telemetry = ref.Telemetry
			back, ok := parseEntry(got)
			if !ok || !sameOutcome(back, want) {
				t.Fatalf("entry %s decodes to %+v, %v", got, back, ok)
			}
		}

		// An accepted entry without telemetry is canonical: it re-encodes
		// to its own bytes.
		if back, ok := parseEntry(entry); ok && back.Telemetry == nil {
			again, err := appendOutcome(nil, &back)
			if err != nil || !bytes.Equal(again, entry) {
				t.Fatalf("accepted entry %q re-encodes as %q (%v)", entry, again, err)
			}
		}
	})
}
