// Command benchgate compares a freshly measured benchmark snapshot (the
// BENCH_sim.json emitted by `go test -bench ... -benchjson ...`) against
// a committed baseline and fails when any benchmark's simulation
// throughput regresses beyond a tolerance. CI runs it on every pull
// request; see the README's Performance section for the workflow and for
// refreshing the baseline.
//
// Usage:
//
//	benchgate -baseline BENCH_sim.json -current ci/BENCH_sim.json
//	          [-tolerance 0.20] [-json verdict.json]
//
// When the baseline file does not exist — the merge-base predates the
// benchmark harness — benchgate prints a skip message and exits 0, so CI
// can invoke it unconditionally. With -json it also emits a
// machine-readable verdict: per-benchmark ratios, the overall status
// (ok, fail or skip), and the sweep-cache hit/miss counts carried in each
// snapshot's "cache" section. `-json -` writes the verdict to stdout; all
// human-readable report lines then move to stderr, so stdout is always a
// single valid JSON document — including on the missing-baseline skip
// path, which used to interleave a log line with the verdict stream.
//
// The tolerance is generous by design: CI runners vary, and the gate is
// meant to catch algorithmic regressions (a scan reintroduced in the cycle
// loop), not scheduler noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// cacheCounts mirrors the optional sweep-cache section of a snapshot
// (sweep.CacheStats as written by the -benchjson harness).
type cacheCounts struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

type snapshot struct {
	Schema     int               `json:"schema"`
	Go         string            `json:"go"`
	Instrs     uint64            `json:"instructions_per_run"`
	Benchmarks map[string]record `json:"benchmarks"`
	Cache      *cacheCounts      `json:"cache,omitempty"`
}

type record struct {
	InstrsPerSec float64 `json:"instrs_per_sec"`
	SecPerOp     float64 `json:"sec_per_op"`
}

// verdict is the machine-readable gate result written by -json.
type verdict struct {
	Schema int `json:"schema"`
	// Status is ok, fail or skip.
	Status    string  `json:"status"`
	Reason    string  `json:"reason,omitempty"`
	Baseline  string  `json:"baseline"`
	Current   string  `json:"current"`
	Tolerance float64 `json:"tolerance"`
	// Benchmarks maps each baseline benchmark to its comparison.
	Benchmarks map[string]comparison `json:"benchmarks,omitempty"`
	// Cache carries the sweep-cache hit/miss counts of each snapshot,
	// when the harness recorded them.
	Cache struct {
		Baseline *cacheCounts `json:"baseline,omitempty"`
		Current  *cacheCounts `json:"current,omitempty"`
	} `json:"cache"`
}

type comparison struct {
	BaselineInstrsPerSec float64 `json:"baseline_instrs_per_sec"`
	CurrentInstrsPerSec  float64 `json:"current_instrs_per_sec"`
	Ratio                float64 `json:"ratio"`
	OK                   bool    `json:"ok"`
}

func load(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return s, nil
}

// emit writes the verdict JSON, if requested: to stdout for "-", to the
// named file otherwise. It reports (rather than exits on) failure so run
// stays testable.
func emit(path string, v verdict, stdout, stderr io.Writer) bool {
	if path == "" {
		return true
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		data = append(data, '\n')
		if path == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: writing %s: %v\n", path, err)
		return false
	}
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole gate; main only binds it to the process. The exit
// code is 0 for ok/skip, 1 for a regression, 2 for usage or I/O errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_sim.json", "committed baseline snapshot")
	current := fs.String("current", "", "freshly measured snapshot to check")
	tolerance := fs.Float64("tolerance", 0.20, "maximum allowed fractional throughput regression")
	jsonOut := fs.String("json", "", "write a machine-readable verdict to this path (- for stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h prints usage; matches the pre-refactor ExitOnError behavior
		}
		return 2
	}
	if *current == "" {
		fmt.Fprintln(stderr, "benchgate: -current is required")
		return 2
	}
	// With the verdict going to stdout, the human-readable report moves
	// to stderr so stdout stays one valid JSON document.
	human := stdout
	if *jsonOut == "-" {
		human = stderr
	}
	v := verdict{
		Schema: 1, Baseline: *baseline, Current: *current, Tolerance: *tolerance,
	}

	// A missing baseline is a skip, not a failure: the merge-base
	// predates the benchmark harness, so there is nothing to gate against.
	if _, err := os.Stat(*baseline); os.IsNotExist(err) {
		fmt.Fprintf(human, "benchgate: skip: no baseline snapshot at %s (merge-base predates the benchmark harness)\n", *baseline)
		v.Status = "skip"
		v.Reason = fmt.Sprintf("baseline %s does not exist", *baseline)
		if !emit(*jsonOut, v, stdout, stderr) {
			return 2
		}
		return 0
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: baseline: %v\n", err)
		return 2
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: current: %v\n", err)
		return 2
	}
	v.Cache.Baseline = base.Cache
	v.Cache.Current = cur.Cache
	v.Benchmarks = make(map[string]comparison)

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(human, "FAIL %-18s missing from the current snapshot\n", name)
			v.Benchmarks[name] = comparison{BaselineInstrsPerSec: b.InstrsPerSec}
			failed = true
			continue
		}
		ratio := c.InstrsPerSec / b.InstrsPerSec
		ok = ratio >= 1-*tolerance
		v.Benchmarks[name] = comparison{
			BaselineInstrsPerSec: b.InstrsPerSec,
			CurrentInstrsPerSec:  c.InstrsPerSec,
			Ratio:                ratio,
			OK:                   ok,
		}
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(human, "%s %-18s %12.0f -> %12.0f instrs/s (%+.1f%%)\n",
			status, name, b.InstrsPerSec, c.InstrsPerSec, 100*(ratio-1))
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(human, "note %-18s new benchmark (not in baseline); refresh the baseline to track it\n", name)
		}
	}
	if cc := cur.Cache; cc != nil {
		fmt.Fprintf(human, "cache               %d hits / %d misses in the current snapshot's sweep benchmark\n", cc.Hits, cc.Misses)
	}

	v.Status = "ok"
	if failed {
		v.Status = "fail"
	}
	if !emit(*jsonOut, v, stdout, stderr) {
		return 2
	}
	if failed {
		fmt.Fprintf(human, "\nbenchgate: throughput regressed more than %.0f%% vs %s\n", 100**tolerance, *baseline)
		fmt.Fprintln(human, "If the regression is intended, refresh the baseline:")
		fmt.Fprintln(human, "  go test -bench 'BenchmarkSim$|BenchmarkSweepRunner$' -benchtime 10x -run '^$' -benchjson BENCH_sim.json .")
		return 1
	}
	return 0
}
