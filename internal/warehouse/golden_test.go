package warehouse

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// reversedSpecJSON lists testSpecJSON's benchmarks in reverse order over
// a subset of its families, so its segment's dictionaries hold the same
// names under different ids.
const reversedSpecJSON = `{
  "name": "wh-reversed",
  "instructions": 4000,
  "benchmarks": ["swim", "compress"],
  "architectures": [
    {"kind": "replicated", "clusters": [2], "read_ports": [2], "write_ports": [2]},
    {"kind": "rfcache", "read_ports": [4], "write_ports": [3], "buses": [2],
     "upper_sizes": [16], "caching": ["ready"], "prefetch": ["demand"]},
    {"kind": "1cycle", "read_ports": [4], "write_ports": [3]}
  ]
}`

// gridSpecJSON is the paper's Figure 6 grid: all 18 SPEC95 proxies × the
// six families at their defaults.
const gridSpecJSON = `{
  "name": "wh-grid",
  "instructions": 4000,
  "architectures": [
    {"kind": "1cycle"}, {"kind": "2cycle"}, {"kind": "2cycle1b"},
    {"kind": "rfcache"}, {"kind": "onelevel"}, {"kind": "replicated"}
  ]
}`

// specJobsRows expands a spec and fabricates a deterministic row per
// job. salt varies the metrics between segments of the same spec; the
// IPCs are not exact binary fractions, so a change of accumulation order
// shows in the low bits.
func specJobsRows(t testing.TB, specJSON string, salt int) ([]sweep.Job, []sweep.Row) {
	t.Helper()
	s, err := sweep.ParseSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.Row, len(jobs))
	for i, j := range jobs {
		k := i*7 + salt*3
		res := sim.Result{
			Instructions:   j.Config.MaxInstructions,
			Cycles:         j.Config.MaxInstructions/2 + uint64(k*37),
			IPC:            0.9 + float64(k%11)*0.1,
			Branches:       100,
			Mispredicts:    uint64(k % 13),
			ICacheMissRate: 0.01 * float64(k%3),
			DCacheMissRate: 0.03 * float64(k%7),
		}
		rows[i] = sweep.RowOf(j, sweep.Outcome{Result: res, Key: j.Key()})
	}
	return jobs, rows
}

// mixedSegments is a warehouse whose segments disagree on dictionary
// order and content: the test spec, its reversed subset, the 18×6 grid,
// and the test spec again with other metrics. Segments are in sweep-id
// order, as Warehouse.Query hands them to Eval.
func mixedSegments(t testing.TB) []*Segment {
	t.Helper()
	var segs []*Segment
	for i, spec := range []string{testSpecJSON, reversedSpecJSON, gridSpecJSON, testSpecJSON} {
		jobs, rows := specJobsRows(t, spec, i)
		segs = append(segs, buildSegment(t, "s00000"+string(rune('1'+i)), "", jobs, rows))
	}
	return segs
}

// evalGoldenQueries covers every op, every group_by column, every metric
// op on a u64 and an f64 metric, string and dims filters (with names
// that never match), the sweep restriction, and rows pages that cross
// segment boundaries (the segments hold 12, 6, 108 and 12 rows).
var evalGoldenQueries = []string{
	`{"limit":14}`,
	`{"op":"rows","limit":5,"cursor":"10"}`,
	`{"op":"rows","limit":10,"cursor":"15"}`,
	`{"op":"rows","limit":7,"cursor":"120"}`,
	`{"op":"rows","limit":4,"cursor":"500"}`,
	`{"op":"rows","limit":3,"cursor":"2","families":["rfcache"]}`,
	`{"op":"rows","benchmarks":["swim"],"dims":{"read_ports":[4]}}`,
	`{"op":"rows","sweep":"s000002"}`,
	`{"op":"aggregate"}`,
	`{"op":"aggregate","group_by":["benchmark"]}`,
	`{"op":"aggregate","group_by":["arch"],"metrics":[{"op":"mean","metric":"area"}]}`,
	`{"op":"aggregate","group_by":["family"],"metrics":[{"op":"mean","metric":"ipc"}]}`,
	`{"op":"aggregate","group_by":["suite"],"metrics":[{"op":"sum","metric":"mispredict_rate"},{"op":"max","metric":"dcache_miss_rate"}]}`,
	`{"op":"aggregate","group_by":["sweep"],"metrics":[{"op":"min","metric":"icache_miss_rate"},{"op":"sum","metric":"instructions"}]}`,
	`{"op":"aggregate","group_by":["sweep","family","suite"],"metrics":[` +
		`{"op":"sum","metric":"cycles"},{"op":"mean","metric":"cycles"},{"op":"min","metric":"cycles"},{"op":"max","metric":"cycles"},` +
		`{"op":"sum","metric":"ipc"},{"op":"mean","metric":"ipc"},{"op":"min","metric":"ipc"},{"op":"max","metric":"ipc"}]}`,
	`{"op":"aggregate","group_by":["suite","benchmark","arch"],"families":["rfcache","1cycle","nope"]}`,
	`{"op":"aggregate","group_by":["family"],"dims":{"read_ports":[0]}}`,
	`{"op":"aggregate","group_by":["arch"],"dims":{"read_ports":[],"banks":[2]}}`,
	`{"op":"aggregate","group_by":["family"],"dims":{"clusters":[99]}}`,
	`{"op":"aggregate","group_by":["benchmark"],"benchmarks":["nope"]}`,
	`{"op":"aggregate","group_by":["benchmark","family"],"sweep":"s000002"}`,
	`{"op":"aggregate","sweep":"s999999"}`,
	`{"op":"aggregate","group_by":["sweep","benchmark"],"archs":["2-cycle, 2-bypass R∞W∞"],"benchmarks":["swim","gcc"]}`,
	`{"op":"series"}`,
	`{"op":"series","sweep":"s000002"}`,
	`{"op":"series","benchmarks":["swim","compress","gcc"]}`,
	`{"op":"series","families":["rfcache"],"dims":{"upper_sizes":[16]}}`,
	`{"op":"series","archs":["nope"]}`,
	`{"op":"series","archs":["2-cycle, 2-bypass R∞W∞","replicated 2c R2W2","nope"]}`,
	`{"op":"pareto"}`,
	`{"op":"pareto","sweep":"s000002"}`,
	`{"op":"pareto","families":["rfcache","replicated"],"dims":{"read_ports":[2,4]}}`,
	`{"op":"pareto","benchmarks":["compress"]}`,
}

type evalGoldenCase struct {
	Query  json.RawMessage `json:"query"`
	Result json.RawMessage `json:"result"`
}

// TestEvalGolden pins Eval's answers byte for byte over mixedSegments.
// Any change to the evaluator that moves a float's low bits, a group's
// order or a series' registration order fails here. Refresh only for an
// intended answer change: go test ./internal/warehouse/ -run EvalGolden -update
func TestEvalGolden(t *testing.T) {
	segs := mixedSegments(t)
	var cases []evalGoldenCase
	for _, doc := range evalGoldenQueries {
		q, err := ParseQuery([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		cases = append(cases, evalGoldenCase{Query: json.RawMessage(doc), Result: json.RawMessage(evalJSON(t, segs, q))})
	}
	got, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "eval_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantCases []evalGoldenCase
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if i >= len(wantCases) {
			t.Errorf("query %s has no golden answer", c.Query)
			continue
		}
		var w bytes.Buffer
		if err := json.Compact(&w, wantCases[i].Result); err != nil {
			t.Fatal(err)
		}
		if w.String() != string(c.Result) {
			t.Errorf("query %s:\n got %s\nwant %s", c.Query, c.Result, w.String())
		}
	}
	if len(wantCases) != len(cases) {
		t.Errorf("golden holds %d answers, the table %d queries", len(wantCases), len(cases))
	}
}
