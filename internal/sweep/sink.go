package sweep

import (
	"bufio"
	"encoding/csv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mcnet/internal/mcsim"
)

// Sink receives sweep results. The engine calls Write sequentially and in
// job order, so implementations need no locking.
type Sink interface {
	Write(Result) error
}

// CSVHeader is the column list of the CSV sink.
var CSVHeader = []string{
	"index", "org", "flits", "flit_bytes", "pattern", "routing",
	"lambda", "rep", "sim_seed", "key",
	"analysis", "analysis_saturated",
	"sim_latency", "sim_source_wait", "sim_pout", "delivered", "truncated",
}

// CSVWorkloadColumns are the extra columns of a sink whose spec sweeps the
// workload axes (Spec.HasWorkloadAxes).
var CSVWorkloadColumns = []string{"arrival", "size_dist"}

// CSVLinksColumns are the extra columns of a sink whose spec sweeps link
// heterogeneity (Spec.HasLinkAxis).
var CSVLinksColumns = []string{"links"}

// CSVTopologyColumns are the extra columns of a sink whose spec sweeps
// topology (Spec.HasTopologyAxis).
var CSVTopologyColumns = []string{"topology"}

// CSVTelemetryColumns are the extra columns of a sink whose spec sets
// Spec.Telemetry: per-tier mean utilization and blocking share, the latency
// decomposition means, and the observed bottleneck tier. Rows whose outcome
// carries no telemetry digest (e.g. cache hits from telemetry-off runs)
// print NaN/empty values.
var CSVTelemetryColumns = []string{
	"util_icn1", "util_ecn1", "util_conc", "util_icn2",
	"blockfrac_icn1", "blockfrac_ecn1", "blockfrac_conc", "blockfrac_icn2",
	"mean_queueing", "mean_blocking", "mean_transmission", "bottleneck_tier",
}

// CSVSink streams results as CSV rows (RFC 4180 quoting: organization specs
// contain commas). Output is deterministic: floats use the shortest exact
// decimal representation and NaN prints as "NaN".
//
// The schema follows the spec: each group of extra columns appears exactly
// when the spec sweeps that axis (or turns telemetry on), so sweeps over the
// paper's defaults keep producing byte-identical files to versions that
// predate those axes.
type CSVSink struct {
	workload, links, topology, telemetry bool

	w      *csv.Writer
	headed bool
}

// NewCSVSink wraps w in a buffered CSV sink whose columns are derived from
// spec. Call Flush when the sweep is done.
func NewCSVSink(w io.Writer, spec Spec) *CSVSink {
	return &CSVSink{
		workload:  spec.HasWorkloadAxes(),
		links:     spec.HasLinkAxis(),
		topology:  spec.HasTopologyAxis(),
		telemetry: spec.Telemetry,
		w:         csv.NewWriter(w),
	}
}

func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Write implements Sink.
func (s *CSVSink) Write(r Result) error {
	if !s.headed {
		s.headed = true
		header := CSVHeader
		if s.workload || s.links || s.topology || s.telemetry {
			header = append([]string{}, CSVHeader...)
			if s.workload {
				header = append(header, CSVWorkloadColumns...)
			}
			if s.links {
				header = append(header, CSVLinksColumns...)
			}
			if s.topology {
				header = append(header, CSVTopologyColumns...)
			}
			if s.telemetry {
				header = append(header, CSVTelemetryColumns...)
			}
		}
		if err := s.w.Write(header); err != nil {
			return err
		}
	}
	j := r.Job
	row := []string{
		strconv.Itoa(j.Index), j.Org, strconv.Itoa(j.Flits), strconv.Itoa(j.FlitBytes),
		j.Pattern, j.Routing,
		formatFloat(j.Lambda), strconv.Itoa(j.Rep), strconv.FormatUint(j.SimSeed, 10), j.Key()[:12],
		formatFloat(float64(r.Analysis)), strconv.FormatBool(r.AnalysisSaturated),
		formatFloat(float64(r.SimLatency)), formatFloat(float64(r.SimSourceWait)),
		formatFloat(float64(r.SimPOut)), strconv.Itoa(r.Delivered), strconv.FormatBool(r.Truncated),
	}
	if s.workload {
		row = append(row, j.ArrivalName(), j.SizeName())
	}
	if s.links {
		row = append(row, j.LinksName())
	}
	if s.topology {
		row = append(row, j.TopoName())
	}
	if s.telemetry {
		row = append(row, telemetryColumns(r.Telemetry)...)
	}
	return s.w.Write(row)
}

// telemetryColumns renders an outcome's telemetry digest as the
// CSVTelemetryColumns values (NaN/empty when the outcome has none).
func telemetryColumns(t *mcsim.TelemetrySummary) []string {
	nan := formatFloat(math.NaN())
	row := make([]string, 0, len(CSVTelemetryColumns))
	for _, name := range mcsim.TierNames() {
		if ts := tierOrNil(t, name); ts != nil {
			row = append(row, formatFloat(ts.Utilization))
		} else {
			row = append(row, nan)
		}
	}
	for _, name := range mcsim.TierNames() {
		if ts := tierOrNil(t, name); ts != nil {
			row = append(row, formatFloat(ts.BlockingFraction))
		} else {
			row = append(row, nan)
		}
	}
	if t != nil {
		row = append(row, formatFloat(t.MeanQueueing), formatFloat(t.MeanBlocking),
			formatFloat(t.MeanTransmission), t.Bottleneck)
	} else {
		row = append(row, nan, nan, nan, "")
	}
	return row
}

func tierOrNil(t *mcsim.TelemetrySummary, name string) *mcsim.TierSummary {
	if t == nil {
		return nil
	}
	return t.TierByName(name)
}

// Flush drains the buffer to the underlying writer.
func (s *CSVSink) Flush() error {
	s.w.Flush()
	return s.w.Error()
}

// JSONLSink streams results as one JSON object per line, byte for byte as
// json.Marshal writes a Result.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte // the row being written, reused across rows
}

// NewJSONLSink wraps w in a buffered JSONL sink. Call Flush when the sweep
// is done.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: bufio.NewWriter(w)} }

// Write implements Sink.
func (s *JSONLSink) Write(r Result) error {
	b, err := appendResult(s.buf[:0], &r)
	if err != nil {
		return err
	}
	s.buf = append(b, '\n')
	_, err = s.w.Write(s.buf)
	return err
}

// Flush drains the buffer to the underlying writer.
func (s *JSONLSink) Flush() error { return s.w.Flush() }

// NewSpecCSVSink creates <dir>/<spec.Name>.csv and returns a CSV sink with
// the spec's schema, plus a close function that flushes the sink and closes
// the file. The reproduction pipeline uses it to capture every study's raw
// sweep rows inside the run directory, so a run tree carries the full
// evidence behind its figures.
func NewSpecCSVSink(dir string, spec Spec) (*CSVSink, func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	spec = spec.Normalized()
	f, err := os.Create(filepath.Join(dir, spec.Name+".csv"))
	if err != nil {
		return nil, nil, err
	}
	sink := NewCSVSink(f, spec)
	closeFn := func() error {
		ferr := sink.Flush()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	return sink, closeFn, nil
}

// MemorySink collects every result in job order, for callers (like the
// experiments package) that post-process a sweep in memory.
type MemorySink struct {
	Results []Result
}

// Write implements Sink.
func (s *MemorySink) Write(r Result) error {
	s.Results = append(s.Results, r)
	return nil
}
