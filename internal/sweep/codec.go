package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"mcnet/internal/mcsim"
)

// The codec below writes sweep rows (Result) and cache entries (Outcome)
// without reflection, byte for byte as json.Marshal writes them, and reads
// back the one entry form DirCache.Put writes. Rows and entries are on a warm
// sweep's hot path: every job encodes one row and decodes one entry. Outcome
// and Result deliberately have no MarshalJSON or UnmarshalJSON methods:
// Outcome is embedded in Result, so its method would be promoted and a
// json.Unmarshal of a whole row would decode only the outcome.

// appendResult appends r's JSON encoding, as json.Marshal(r) writes it.
func appendResult(b []byte, r *Result) ([]byte, error) {
	b = append(b, `{"job":`...)
	b, err := appendJob(b, &r.Job)
	if err != nil {
		return b, err
	}
	b = append(b, `,"analysis":`...)
	b = appendFloat(b, r.Analysis)
	b = append(b, `,"analysis_saturated":`...)
	b = strconv.AppendBool(b, r.AnalysisSaturated)
	b = append(b, ',')
	if b, err = appendOutcomeFields(b, &r.Outcome); err != nil {
		return b, err
	}
	if r.Stalled {
		b = append(b, `,"stalled":true`...)
	}
	return append(b, '}'), nil
}

// appendOutcome appends o's JSON encoding, as json.Marshal(o) writes it: the
// form of a DirCache entry.
func appendOutcome(b []byte, o *Outcome) ([]byte, error) {
	b = append(b, '{')
	b, err := appendOutcomeFields(b, o)
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendOutcomeFields appends o's fields without the enclosing braces; a row
// inlines them after the analysis, as the embedded struct's fields are.
func appendOutcomeFields(b []byte, o *Outcome) ([]byte, error) {
	b = append(b, `"sim_latency":`...)
	b = appendFloat(b, o.SimLatency)
	b = append(b, `,"sim_source_wait":`...)
	b = appendFloat(b, o.SimSourceWait)
	b = append(b, `,"sim_pout":`...)
	b = appendFloat(b, o.SimPOut)
	b = append(b, `,"delivered":`...)
	b = strconv.AppendInt(b, int64(o.Delivered), 10)
	b = append(b, `,"truncated":`...)
	b = strconv.AppendBool(b, o.Truncated)
	if o.Telemetry != nil {
		// Only telemetry-on jobs carry the digest: encoding/json may have
		// its nested object.
		t, err := json.Marshal(o.Telemetry)
		if err != nil {
			return b, err
		}
		b = append(b, `,"telemetry":`...)
		b = append(b, t...)
	}
	return b, nil
}

// appendJob appends j's JSON encoding, as json.Marshal(j) writes it.
func appendJob(b []byte, j *Job) ([]byte, error) {
	for _, v := range [...]float64{j.Lambda, j.AlphaNet, j.AlphaSw, j.BetaNet} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, fmt.Errorf("json: unsupported value: %v", v)
		}
	}
	b = appendString(append(b, `{"org":`...), j.Org)
	b = strconv.AppendInt(append(b, `,"flits":`...), int64(j.Flits), 10)
	b = strconv.AppendInt(append(b, `,"flit_bytes":`...), int64(j.FlitBytes), 10)
	b = appendString(append(b, `,"pattern":`...), j.Pattern)
	b = appendString(append(b, `,"routing":`...), j.Routing)
	if j.Arrival != "" {
		b = appendString(append(b, `,"arrival":`...), j.Arrival)
	}
	if j.SizeDist != "" {
		b = appendString(append(b, `,"size_dist":`...), j.SizeDist)
	}
	if j.Links != "" {
		b = appendString(append(b, `,"links":`...), j.Links)
	}
	if j.Topo != "" {
		b = appendString(append(b, `,"topo":`...), j.Topo)
	}
	b = appendFloat64(append(b, `,"lambda":`...), j.Lambda)
	b = strconv.AppendInt(append(b, `,"rep":`...), int64(j.Rep), 10)
	b = strconv.AppendUint(append(b, `,"sim_seed":`...), j.SimSeed, 10)
	b = appendFloat64(append(b, `,"alpha_net":`...), j.AlphaNet)
	b = appendFloat64(append(b, `,"alpha_sw":`...), j.AlphaSw)
	b = appendFloat64(append(b, `,"beta_net":`...), j.BetaNet)
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{`,"warmup":`, j.Warmup}, {`,"measure":`, j.Measure}, {`,"drain":`, j.Drain},
		{`,"index":`, j.Index}, {`,"org_index":`, j.OrgIndex}, {`,"msg_index":`, j.MsgIndex},
		{`,"pattern_index":`, j.PatternIndex}, {`,"routing_index":`, j.RoutingIndex},
		{`,"links_index":`, j.LinksIndex}, {`,"topo_index":`, j.TopoIndex},
		{`,"arrival_index":`, j.ArrivalIndex}, {`,"size_index":`, j.SizeIndex},
		{`,"load_index":`, j.LoadIndex},
	} {
		b = strconv.AppendInt(append(b, f.name...), int64(f.v), 10)
	}
	return append(b, '}'), nil
}

// appendFloat appends f as Float.MarshalJSON writes it: the shortest 'g'
// form, or null when f is not finite.
func appendFloat(b []byte, f Float) []byte {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendFloat64 appends a finite v as encoding/json writes a float64: the
// shortest 'f' form, or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent written as e-7, not e-07.
func appendFloat64(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string. Axis values are plain ASCII and
// are copied between quotes; anything encoding/json would escape (quotes,
// backslashes, control bytes, <, > and &, non-ASCII) is left to it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// parseEntry decodes a DirCache entry in the form appendOutcome writes: the
// fields in order, every number in its canonical form, no whitespace.
// Anything else is not an entry.
func parseEntry(b []byte) (Outcome, bool) {
	r := entryReader{b: b, ok: true}
	var o Outcome
	r.lit(`{"sim_latency":`)
	o.SimLatency = r.float()
	r.lit(`,"sim_source_wait":`)
	o.SimSourceWait = r.float()
	r.lit(`,"sim_pout":`)
	o.SimPOut = r.float()
	r.lit(`,"delivered":`)
	o.Delivered = r.int()
	r.lit(`,"truncated":`)
	o.Truncated = r.bool()
	if r.ok && string(r.b) == "}" {
		return o, true
	}
	r.lit(`,"telemetry":`)
	if !r.ok || len(r.b) == 0 || r.b[len(r.b)-1] != '}' {
		return Outcome{}, false
	}
	// Declared here, so that only a telemetry-on entry moves it to the heap;
	// the copy keeps the caller's buffer, which json.Unmarshal would leak,
	// on the stack.
	var t *mcsim.TelemetrySummary
	if json.Unmarshal(bytes.Clone(r.b[:len(r.b)-1]), &t) != nil {
		return Outcome{}, false
	}
	o.Telemetry = t
	return o, true
}

// entryReader consumes an entry from the front. The first mismatch clears
// ok, and every later read is then a no-op.
type entryReader struct {
	b  []byte
	ok bool
}

// lit consumes the literal s.
func (r *entryReader) lit(s string) {
	if r.ok && bytes.HasPrefix(r.b, []byte(s)) {
		r.b = r.b[len(s):]
	} else {
		r.ok = false
	}
}

// number consumes the leading run of number bytes.
func (r *entryReader) number() []byte {
	i := 0
	for i < len(r.b) && (r.b[i] >= '0' && r.b[i] <= '9' || r.b[i] == '-' || r.b[i] == '+' || r.b[i] == '.' || r.b[i] == 'e') {
		i++
	}
	tok := r.b[:i]
	r.b = r.b[i:]
	return tok
}

// float consumes a Float as appendFloat writes it: null (NaN) or the
// shortest 'g' form, which it must be.
func (r *entryReader) float() Float {
	if !r.ok {
		return 0
	}
	if bytes.HasPrefix(r.b, []byte("null")) {
		r.b = r.b[4:]
		return Float(math.NaN())
	}
	tok := r.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	r.ok = err == nil && bytes.Equal(strconv.AppendFloat(canon[:0], v, 'g', -1, 64), tok)
	return Float(v)
}

// int consumes a decimal int in its canonical form.
func (r *entryReader) int() int {
	if !r.ok {
		return 0
	}
	tok := r.number()
	v, err := strconv.Atoi(string(tok))
	var canon [24]byte
	r.ok = err == nil && bytes.Equal(strconv.AppendInt(canon[:0], int64(v), 10), tok)
	return v
}

// bool consumes true or false.
func (r *entryReader) bool() bool {
	if r.ok && bytes.HasPrefix(r.b, []byte("true")) {
		r.b = r.b[4:]
		return true
	}
	r.lit("false")
	return false
}
