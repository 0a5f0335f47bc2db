package rf

import (
	"io"

	"repro/internal/sweep"
)

// Spec is a sweep matrix: benchmarks × architectures × seeds, each run
// for the same instruction budget. It is the JSON input of cmd/rfbatch
// and the submission body of the rfserved service (rf/client).
type Spec = sweep.Spec

// Job is one simulation of a sweep: a workload profile plus a full
// processor configuration.
type Job = sweep.Job

// Key is the content address of a Job.
type Key = sweep.Key

// Row is one job's flattened measurements — the NDJSON line format
// streamed by rfserved and written by rfbatch.
type Row = sweep.Row

// Report is the emission-ready form of a finished sweep.
type Report = sweep.Report

// Runner executes job batches through a bounded worker pool with a
// content-addressed result cache.
type Runner = sweep.Runner

// RunnerConfig configures a Runner.
type RunnerConfig = sweep.RunnerConfig

// Outcome is one job's result plus its cache provenance.
type Outcome = sweep.Outcome

// Progress reports one finished job to a progress callback.
type Progress = sweep.Progress

// CacheStats counts cache effectiveness across a Runner's lifetime.
type CacheStats = sweep.CacheStats

// Cache is the pluggable result cache behind a Runner.
type Cache = sweep.Cache

// ParseSpec decodes and validates a JSON sweep specification. Unknown
// fields and unsupported schema versions are rejected loudly.
func ParseSpec(r io.Reader) (*Spec, error) { return sweep.ParseSpec(r) }

// NewRunner returns a Runner with the given configuration.
func NewRunner(cfg RunnerConfig) *Runner { return sweep.NewRunner(cfg) }

// NewReport flattens parallel job/outcome slices into a report.
func NewReport(name string, jobs []Job, outs []Outcome, stats CacheStats) *Report {
	return sweep.NewReport(name, jobs, outs, stats)
}

// RowOf flattens one job outcome into a report row.
func RowOf(j Job, o Outcome) Row { return sweep.RowOf(j, o) }

// WriteRow emits one row as a single compact NDJSON line.
func WriteRow(w io.Writer, row Row) error { return sweep.WriteRow(w, row) }

// ReadRows decodes an NDJSON row stream — the inverse of WriteRow, and
// the reassembly seam for consumers of a remote results stream.
func ReadRows(r io.Reader) ([]Row, error) { return sweep.ReadRows(r) }

// Simulate runs one job to completion (the Runner's default execution
// hook).
func Simulate(j Job) Result { return sweep.Simulate(j) }
