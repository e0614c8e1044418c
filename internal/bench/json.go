package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReportSchema versions the facebench -json output format so downstream
// tooling tracking a BENCH_*.json perf trajectory can detect changes.
const ReportSchema = "facebench/v11"

// Report is the machine-readable form of a facebench run: the options the
// golden image was built with plus one entry per executed experiment.  The
// experiment payloads are the same structs the text formatters render
// (Result, SweepResult, RecoveryRun, ...), so every number in the tables —
// policy, throughput, hit ratios, device I/O counts, lock and WAL counters —
// is available to scripts.
type Report struct {
	Schema      string         `json:"schema"`
	Options     Options        `json:"options"`
	DBPages     int64          `json:"db_pages"`
	Experiments map[string]any `json:"experiments"`
}

// NewReport creates an empty report for a golden image.
func NewReport(g *Golden) *Report {
	r := NewStaticReport(g.Options())
	r.DBPages = g.DBPages()
	return r
}

// NewStaticReport creates an empty report for experiments that need no
// database (table1, the policy listing), so every -json invocation emits
// the same envelope.
func NewStaticReport(opts Options) *Report {
	return &Report{
		Schema:      ReportSchema,
		Options:     opts,
		Experiments: map[string]any{},
	}
}

// Add records one experiment's results under its name.
func (r *Report) Add(name string, data any) { r.Experiments[name] = data }

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encoding JSON report: %w", err)
	}
	return nil
}
