package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeSnapshot drops a minimal BENCH_sim.json-shaped file.
func writeSnapshot(t *testing.T, path string, instrsPerSec map[string]float64) {
	t.Helper()
	snap := snapshot{Schema: 1, Benchmarks: map[string]record{}}
	for name, v := range instrsPerSec {
		snap.Benchmarks[name] = record{InstrsPerSec: v, SecPerOp: 1 / v}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// decodeVerdict requires the whole buffer to be exactly one JSON
// verdict — any interleaved log line fails the decode.
func decodeVerdict(t *testing.T, data []byte) verdict {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	var v verdict
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("stdout is not a single JSON verdict: %v\n%s", err, data)
	}
	if dec.More() {
		t.Fatalf("trailing content after the JSON verdict:\n%s", data)
	}
	return v
}

// TestMissingBaselineJSONToStdout is the regression test for the skip
// path: with -json - the skip verdict must be the only bytes on stdout
// (the log line used to precede it, breaking JSON consumers).
func TestMissingBaselineJSONToStdout(t *testing.T) {
	dir := t.TempDir()
	current := filepath.Join(dir, "current.json")
	writeSnapshot(t, current, map[string]float64{"monolithic": 3e6})

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-baseline", filepath.Join(dir, "nope.json"),
		"-current", current,
		"-json", "-",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("missing baseline exited %d, want 0 (skip)\nstderr: %s", code, stderr.String())
	}
	v := decodeVerdict(t, stdout.Bytes())
	if v.Status != "skip" || v.Reason == "" {
		t.Errorf("verdict = %+v, want status skip with a reason", v)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("benchgate: skip")) {
		t.Errorf("skip explanation missing from stderr: %q", stderr.String())
	}
}

// TestMissingBaselineJSONToFile pins the file form of the same path: the
// verdict file holds valid JSON and the human skip line stays on stdout.
func TestMissingBaselineJSONToFile(t *testing.T) {
	dir := t.TempDir()
	current := filepath.Join(dir, "current.json")
	writeSnapshot(t, current, map[string]float64{"monolithic": 3e6})
	out := filepath.Join(dir, "verdict.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-baseline", filepath.Join(dir, "nope.json"),
		"-current", current,
		"-json", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("missing baseline exited %d, want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeVerdict(t, data); v.Status != "skip" {
		t.Errorf("verdict status = %q, want skip", v.Status)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("benchgate: skip")) {
		t.Errorf("skip message missing from stdout: %q", stdout.String())
	}
}

// TestGateVerdicts covers the ok and fail comparisons with -json - :
// stdout must be pure JSON in both, report lines on stderr, exit code
// reflecting the gate.
func TestGateVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeSnapshot(t, base, map[string]float64{"monolithic": 3e6, "cache": 2.9e6})

	cases := []struct {
		name     string
		current  map[string]float64
		code     int
		status   string
		wantOKs  int
		failures int
	}{
		{"within tolerance", map[string]float64{"monolithic": 2.9e6, "cache": 2.9e6}, 0, "ok", 2, 0},
		{"regression", map[string]float64{"monolithic": 1e6, "cache": 2.9e6}, 1, "fail", 1, 1},
		{"missing benchmark", map[string]float64{"monolithic": 3e6}, 1, "fail", 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			current := filepath.Join(dir, "current.json")
			writeSnapshot(t, current, c.current)
			var stdout, stderr bytes.Buffer
			code := run([]string{
				"-baseline", base, "-current", current, "-json", "-",
			}, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit = %d, want %d\nstderr: %s", code, c.code, stderr.String())
			}
			v := decodeVerdict(t, stdout.Bytes())
			if v.Status != c.status {
				t.Errorf("status = %q, want %q", v.Status, c.status)
			}
			// The verdict carries exactly these top-level fields.
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(stdout.Bytes(), &fields); err != nil {
				t.Fatal(err)
			}
			for f := range fields {
				switch f {
				case "schema", "status", "baseline", "current", "tolerance", "benchmarks", "cache":
				default:
					t.Errorf("unexpected verdict field %q", f)
				}
			}
			oks, fails := 0, 0
			for _, cmp := range v.Benchmarks {
				if cmp.OK {
					oks++
				} else {
					fails++
				}
			}
			if oks != c.wantOKs || fails != c.failures {
				t.Errorf("verdict counts ok=%d fail=%d, want ok=%d fail=%d", oks, fails, c.wantOKs, c.failures)
			}
			if stderr.Len() == 0 {
				t.Error("report lines missing from stderr")
			}
		})
	}
}

// TestUsageErrors pins the error exit code, and that -h stays exit 0
// (the behavior flag.ExitOnError gave the tool before the refactor).
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("missing -current exited %d, want 2", code)
	}
	if code := run([]string{"-current", "/does/not/exist.json", "-baseline", os.Args[0]}, &stdout, &stderr); code != 2 {
		t.Errorf("unreadable current exited %d, want 2", code)
	}
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}
