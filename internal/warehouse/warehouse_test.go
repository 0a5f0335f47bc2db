package warehouse

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/rf/api"
)

// testSpecJSON exercises every register file family, with every
// dimension bounded so areas are modeled, plus one unbounded
// architecture (2cycle) whose area stays unmodeled.
const testSpecJSON = `{
  "name": "wh-test",
  "instructions": 4000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle", "read_ports": [4], "write_ports": [3]},
    {"kind": "2cycle"},
    {"kind": "rfcache", "read_ports": [4], "write_ports": [3], "buses": [2],
     "upper_sizes": [16], "caching": ["nonbypass", "ready"], "prefetch": ["demand"]},
    {"kind": "onelevel", "banks": [2], "read_ports": [4], "write_ports": [3]},
    {"kind": "replicated", "clusters": [2], "read_ports": [2], "write_ports": [2]}
  ]
}`

// testJobsRows expands the test spec and fabricates a deterministic row
// per job, as an ingest seam or a store rebuild would produce them.
func testJobsRows(t testing.TB) ([]sweep.Job, []sweep.Row) {
	t.Helper()
	s, err := sweep.ParseSpec(strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.Row, len(jobs))
	for i, j := range jobs {
		res := sim.Result{
			Instructions:   j.Config.MaxInstructions,
			Cycles:         j.Config.MaxInstructions/2 + uint64(i*37),
			IPC:            1 + float64(i%5)*0.25,
			Branches:       100,
			Mispredicts:    uint64(i),
			ICacheMissRate: 0.01 * float64(i%3),
			DCacheMissRate: 0.02,
		}
		rows[i] = sweep.RowOf(j, sweep.Outcome{Result: res, Key: j.Key()})
	}
	return jobs, rows
}

// buildSegment runs every (job, row) pair through a Builder.
func buildSegment(t testing.TB, sweepID, tenant string, jobs []sweep.Job, rows []sweep.Row) *Segment {
	t.Helper()
	b := NewBuilder(sweepID, "wh-test", tenant, len(jobs))
	// Reverse order: the builder addresses rows by job index, not arrival.
	for i := len(jobs) - 1; i >= 0; i-- {
		if err := b.Add(i, jobs[i], rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Segment()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// evalJSON canonicalizes a query evaluation for byte comparison.
func evalJSON(t testing.TB, segs []*Segment, q *api.Query) string {
	t.Helper()
	res, err := Eval(segs, q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestSegmentRoundtrip(t *testing.T) {
	jobs, rows := testJobsRows(t)
	seg := buildSegment(t, "s000001", "acme", jobs, rows)
	if seg.N != len(jobs) {
		t.Fatalf("segment has %d rows, want %d", seg.N, len(jobs))
	}
	data := seg.encode()
	back, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sweep != "s000001" || back.Name != "wh-test" || back.Tenant != "acme" || back.N != seg.N {
		t.Fatalf("decoded identity = %q/%q/%q/%d", back.Sweep, back.Name, back.Tenant, back.N)
	}
	for _, q := range []*api.Query{
		{Op: api.QueryOpRows},
		{Op: api.QueryOpSeries},
		{Op: api.QueryOpPareto},
		{Op: api.QueryOpAggregate, GroupBy: []string{"family", "suite"},
			Metrics: []api.QueryMetric{{Op: "mean", Metric: "ipc"}, {Op: "max", Metric: "cycles"}}},
	} {
		if got, want := evalJSON(t, []*Segment{back}, q), evalJSON(t, []*Segment{seg}, q); got != want {
			t.Errorf("op %s: decoded segment answers differently:\n got %s\nwant %s", q.Op, got, want)
		}
	}

	// Corruption anywhere in the column data must be detected.
	data[10] ^= 0xff
	if _, err := decodeSegment(data); err == nil {
		t.Error("decodeSegment accepted corrupt column data")
	}
}

func TestOpenSkipsBadSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	seg := buildSegment(t, "s000001", "", jobs, rows)
	if err := writeSegData(dir, seg.Sweep, seg.encode()); err != nil {
		t.Fatal(err)
	}
	// Garbage bytes, and a valid segment stored under the wrong name.
	if err := os.WriteFile(filepath.Join(dir, "s000002.seg"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	mis := buildSegment(t, "s000003", "", jobs, rows)
	if err := os.WriteFile(filepath.Join(dir, "s000009.seg"), mis.encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Segments != 1 || st.Rows != len(jobs) {
		t.Fatalf("Open loaded %d segments / %d rows, want 1 / %d", st.Segments, st.Rows, len(jobs))
	}
	if !w.Has("s000001") || w.Has("s000003") {
		t.Error("Open kept the wrong segments")
	}
}

func TestSealRequiresCompleteBuilder(t *testing.T) {
	jobs, rows := testJobsRows(t)
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Begin("s000001", "wh-test", "", len(jobs))
	w.Add("s000001", 0, jobs[0], rows[0])
	if err := w.Seal("s000001"); err == nil {
		t.Error("Seal accepted an incomplete builder")
	}
	if w.Has("s000001") {
		t.Error("incomplete sweep was indexed")
	}
	if w.Stats().IngestErrors == 0 {
		t.Error("incomplete seal not counted as an ingest error")
	}
	// A row for a sweep with no open builder is an ingest error too.
	w.Add("s999999", 0, jobs[0], rows[0])
	if got := w.Stats().IngestErrors; got != 2 {
		t.Errorf("IngestErrors = %d, want 2", got)
	}
}

func TestMetaOfFamilies(t *testing.T) {
	jobs, _ := testJobsRows(t)
	families := map[string]int{}
	for _, j := range jobs {
		m := MetaOf(j)
		families[m.Family]++
		switch m.Family {
		case "1cycle":
			if m.ReadPorts != 4 || m.WritePorts != 3 || m.Area <= 0 {
				t.Errorf("1cycle meta = %+v", m)
			}
		case "2cycle":
			// Unbounded ports: dims normalize to 0 and area stays unmodeled.
			if m.ReadPorts != 0 || m.WritePorts != 0 || m.Area != 0 {
				t.Errorf("2cycle meta = %+v", m)
			}
		case "rfcache":
			if m.Caching != "nonbypass" && m.Caching != "ready" {
				t.Errorf("rfcache caching token = %q", m.Caching)
			}
			if m.Prefetch != "demand" || m.UpperSizes != 16 || m.Buses != 2 || m.Area <= 0 {
				t.Errorf("rfcache meta = %+v", m)
			}
		case "onelevel":
			if m.Banks != 2 || m.Area <= 0 {
				t.Errorf("onelevel meta = %+v", m)
			}
		case "replicated":
			if m.Clusters != 2 || m.Area <= 0 {
				t.Errorf("replicated meta = %+v", m)
			}
		default:
			t.Errorf("unexpected family %q", m.Family)
		}
		if m.PhysRegs < 33 {
			t.Errorf("family %s: PhysRegs = %d", m.Family, m.PhysRegs)
		}
	}
	want := map[string]int{"1cycle": 2, "2cycle": 2, "rfcache": 4, "onelevel": 2, "replicated": 2}
	if !reflect.DeepEqual(families, want) {
		t.Errorf("family counts = %v, want %v", families, want)
	}
}

func TestParseQueryValidation(t *testing.T) {
	good := `{"schema": 1, "op": "aggregate", "benchmarks": ["compress"],
	  "families": ["rfcache"], "dims": {"read_ports": [4, 0]},
	  "group_by": ["family", "suite"],
	  "metrics": [{"op": "mean", "metric": "ipc"}], "limit": 10}`
	if _, err := ParseQuery([]byte(good)); err != nil {
		t.Fatalf("good query rejected: %v", err)
	}
	bad := []string{
		`{"op": "drop"}`,
		`{"op": "rows"} trailing`,
		`{"op": "rows", "nope": 1}`,
		`{"schema": 99}`,
		`{"group_by": ["color"]}`,
		`{"group_by": ["arch", "arch"]}`,
		`{"metrics": [{"op": "median", "metric": "ipc"}]}`,
		`{"metrics": [{"op": "mean", "metric": "speed"}]}`,
		`{"dims": {"voltage": [1]}}`,
		`{"dims": {"read_ports": [-1]}}`,
		`{"limit": -5}`,
		`{"cursor": "abc"}`,
		`{"cursor": "-3"}`,
	}
	for _, doc := range bad {
		if _, err := ParseQuery([]byte(doc)); err == nil {
			t.Errorf("ParseQuery accepted %s", doc)
		}
	}
}

func TestEvalRowsPagination(t *testing.T) {
	jobs, rows := testJobsRows(t)
	seg := buildSegment(t, "s000001", "", jobs, rows)
	segs := []*Segment{seg}

	full, err := Eval(segs, &api.Query{Op: api.QueryOpRows})
	if err != nil {
		t.Fatal(err)
	}
	if full.Matched != len(jobs) || len(full.Rows) != len(jobs) || full.NextCursor != "" {
		t.Fatalf("full page: matched %d, %d rows, cursor %q", full.Matched, len(full.Rows), full.NextCursor)
	}

	var paged []api.QueryRow
	q := &api.Query{Op: api.QueryOpRows, Limit: 5}
	pages := 0
	for {
		res, err := Eval(segs, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != len(jobs) {
			t.Fatalf("page %d: matched %d, want %d", pages, res.Matched, len(jobs))
		}
		paged = append(paged, res.Rows...)
		pages++
		if res.NextCursor == "" {
			break
		}
		q.Cursor = res.NextCursor
	}
	if pages != 3 {
		t.Errorf("12 rows at limit 5 took %d pages, want 3", pages)
	}
	if !reflect.DeepEqual(paged, full.Rows) {
		t.Error("paged rows differ from the single-page scan")
	}
}

func TestEvalFilters(t *testing.T) {
	jobs, rows := testJobsRows(t)
	seg := buildSegment(t, "s000001", "", jobs, rows)
	segs := []*Segment{seg}

	cases := []struct {
		name string
		q    api.Query
		want int
	}{
		{"benchmark", api.Query{Benchmarks: []string{"compress"}}, 6},
		{"family", api.Query{Families: []string{"rfcache"}}, 4},
		{"dim", api.Query{Dims: map[string][]int{"read_ports": {4}}}, 8},
		{"dim-unlimited", api.Query{Dims: map[string][]int{"read_ports": {0}}}, 2},
		{"empty-dim-list", api.Query{Dims: map[string][]int{"read_ports": {}}}, 12},
		{"absent-value", api.Query{Benchmarks: []string{"nope"}}, 0},
		{"wrong-sweep", api.Query{Sweep: "s999999"}, 0},
		{"sweep", api.Query{Sweep: "s000001"}, 12},
	}
	for _, tc := range cases {
		res, err := Eval(segs, &tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matched != tc.want {
			t.Errorf("%s: matched %d, want %d", tc.name, res.Matched, tc.want)
		}
	}
}

func TestEvalAggregate(t *testing.T) {
	jobs, rows := testJobsRows(t)
	seg := buildSegment(t, "s000001", "", jobs, rows)
	res, err := Eval([]*Segment{seg}, &api.Query{
		Op: api.QueryOpAggregate, GroupBy: []string{"family"},
		Metrics: []api.QueryMetric{{Op: "sum", Metric: "ipc"}, {Op: "min", Metric: "ipc"}, {Op: "max", Metric: "ipc"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the expectation straight off the rows.
	wantSum := map[string]float64{}
	wantCount := map[string]int{}
	for i, j := range jobs {
		f := MetaOf(j).Family
		wantSum[f] += rows[i].IPC
		wantCount[f]++
	}
	if len(res.Groups) != len(wantSum) {
		t.Fatalf("%d groups, want %d", len(res.Groups), len(wantSum))
	}
	for _, g := range res.Groups {
		f := g.Key[0]
		if g.Count != wantCount[f] {
			t.Errorf("family %s: count %d, want %d", f, g.Count, wantCount[f])
		}
		if got := g.Values["sum_ipc"]; got != wantSum[f] {
			t.Errorf("family %s: sum_ipc %v, want %v", f, got, wantSum[f])
		}
		if g.Values["min_ipc"] > g.Values["max_ipc"] {
			t.Errorf("family %s: min %v > max %v", f, g.Values["min_ipc"], g.Values["max_ipc"])
		}
	}
	// Groups come out sorted by key.
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i-1].Key[0] >= res.Groups[i].Key[0] {
			t.Errorf("groups unsorted: %q before %q", res.Groups[i-1].Key[0], res.Groups[i].Key[0])
		}
	}
}

func TestEvalSeriesAndFrontier(t *testing.T) {
	jobs, rows := testJobsRows(t)
	seg := buildSegment(t, "s000001", "", jobs, rows)
	segs := []*Segment{seg}

	sres, err := Eval(segs, &api.Query{Op: api.QueryOpSeries})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Series) != 6 {
		t.Fatalf("%d series, want 6 architectures", len(sres.Series))
	}
	for _, s := range sres.Series {
		if len(s.Points) != 2 {
			t.Fatalf("arch %s has %d points, want 2", s.Arch, len(s.Points))
		}
		// Suite order: compress (SPECint) before swim (SPECfp).
		if s.Points[0].Benchmark != "compress" || s.Points[1].Benchmark != "swim" {
			t.Errorf("arch %s points out of suite order: %v", s.Arch, s.Points)
		}
		if s.IntHmean != s.Points[0].IPC {
			t.Errorf("arch %s IntHmean = %v, want %v (single benchmark)", s.Arch, s.IntHmean, s.Points[0].IPC)
		}
		if s.FPHmean != s.Points[1].IPC {
			t.Errorf("arch %s FPHmean = %v, want %v (single benchmark)", s.Arch, s.FPHmean, s.Points[1].IPC)
		}
	}

	pres, err := Eval(segs, &api.Query{Op: api.QueryOpPareto})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Frontier) == 0 {
		t.Fatal("empty frontier despite modeled areas")
	}
	for _, p := range pres.Frontier {
		if p.Area <= 0 || p.IPC <= 0 {
			t.Errorf("frontier point %+v has an unmodeled coordinate", p)
		}
		// The 2cycle arch has unmodeled area and must never appear.
		for _, j := range jobs {
			if j.Config.RF.Name == p.Arch && MetaOf(j).Area == 0 {
				t.Errorf("frontier includes unmodeled arch %s", p.Arch)
			}
		}
	}
	// No frontier point may dominate another.
	for i, a := range pres.Frontier {
		for k, b := range pres.Frontier {
			if i != k && a.Area <= b.Area && a.IPC >= b.IPC && (a.Area < b.Area || a.IPC > b.IPC) {
				t.Errorf("frontier point %+v dominates %+v", a, b)
			}
		}
	}
}

func TestWarehouseLifecycleAndTenancy(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Begin("s000001", "wh-test", "acme", len(jobs))
	for i := range jobs {
		w.Add("s000001", i, jobs[i], rows[i])
	}
	if err := w.Seal("s000001"); err != nil {
		t.Fatal(err)
	}
	if !w.Has("s000001") {
		t.Fatal("sealed sweep not indexed")
	}

	q := &api.Query{Op: api.QueryOpRows}
	owned, err := w.Query(q, "acme", true)
	if err != nil {
		t.Fatal(err)
	}
	if owned.Matched != len(jobs) {
		t.Errorf("owner sees %d rows, want %d", owned.Matched, len(jobs))
	}
	other, err := w.Query(q, "rival", true)
	if err != nil {
		t.Fatal(err)
	}
	if other.Matched != 0 {
		t.Errorf("non-owner sees %d rows, want 0", other.Matched)
	}
	open, err := w.Query(q, "anyone", false)
	if err != nil {
		t.Fatal(err)
	}
	if open.Matched != len(jobs) {
		t.Errorf("untenanted query sees %d rows, want %d", open.Matched, len(jobs))
	}
	st := w.Stats()
	if st.Segments != 1 || st.Rows != len(jobs) || st.Bytes <= 0 || st.Queries != 3 {
		t.Errorf("Stats = %+v", st)
	}

	// A restart loads the sealed segment back from disk.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Has("s000001") {
		t.Fatal("reopened warehouse lost the segment")
	}
	// Reusing the sweep id (journal-less server restart) drops the stale
	// sealed segment immediately.
	w2.Begin("s000001", "other", "", len(jobs))
	if w2.Has("s000001") {
		t.Error("Begin kept a stale segment under a reused sweep id")
	}
	if _, err := os.Stat(filepath.Join(dir, "s000001.seg")); !os.IsNotExist(err) {
		t.Error("Begin left the stale segment file on disk")
	}
}

// TestSegmentOrderAcrossIDWidth pins the scan order Query hands to Eval:
// shorter sweep ids first, then lexicographic, so "s1000000" follows
// "s999999" after the zero-padded width overflows. The order must hold
// whatever order segments are sealed, replaced, dropped or reloaded in,
// and the row total must follow every change.
func TestSegmentOrderAcrossIDWidth(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seal := func(id string) {
		t.Helper()
		w.Begin(id, "wh-test", "", len(jobs))
		for i := range jobs {
			w.Add(id, i, jobs[i], rows[i])
		}
		if err := w.Seal(id); err != nil {
			t.Fatal(err)
		}
	}
	order := func(w *Warehouse) []string {
		t.Helper()
		res, err := w.Query(&api.Query{Op: api.QueryOpRows, Limit: MaxLimit}, "", false)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range res.Rows {
			if len(ids) == 0 || ids[len(ids)-1] != r.Sweep {
				ids = append(ids, r.Sweep)
			}
		}
		return ids
	}
	for _, id := range []string{"s1000000", "s000002", "s999999", "s1000001", "s000010"} {
		seal(id)
	}
	seal("s999999") // replaced in place
	want := []string{"s000002", "s000010", "s999999", "s1000000", "s1000001"}
	if got := order(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan order %v, want %v", got, want)
	}
	if st := w.Stats(); st.Segments != 5 || st.Rows != 5*len(jobs) {
		t.Errorf("Stats = %d segments / %d rows, want 5 / %d", st.Segments, st.Rows, 5*len(jobs))
	}

	w.Begin("s000010", "wh-test", "", len(jobs)) // drops the sealed segment
	want = []string{"s000002", "s999999", "s1000000", "s1000001"}
	if got := order(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("after drop: scan order %v, want %v", got, want)
	}
	if st := w.Stats(); st.Segments != 4 || st.Rows != 4*len(jobs) {
		t.Errorf("after drop: Stats = %d segments / %d rows, want 4 / %d", st.Segments, st.Rows, 4*len(jobs))
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := order(w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened: scan order %v, want %v", got, want)
	}
	if st, st2 := w.Stats(), w2.Stats(); st2.Rows != st.Rows || st2.Bytes != st.Bytes {
		t.Errorf("reopened: Stats = %+v, want rows and bytes of %+v", st2, st)
	}
}

func TestRebuildSweepMatchesIngest(t *testing.T) {
	jobs, rows := testJobsRows(t)
	live, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	live.Begin("s000001", "wh-test", "", len(jobs))
	for i := range jobs {
		live.Add("s000001", i, jobs[i], rows[i])
	}
	if err := live.Seal("s000001"); err != nil {
		t.Fatal(err)
	}

	// Rebuild the same sweep purely from a result "store".
	byKey := map[sweep.Key]sim.Result{}
	for i, j := range jobs {
		byKey[j.Key()] = sim.Result{
			Instructions: rows[i].Instructions, Cycles: rows[i].Cycles, IPC: rows[i].IPC,
			Branches: 100, Mispredicts: uint64(i),
			ICacheMissRate: rows[i].ICacheMiss, DCacheMissRate: rows[i].DCacheMiss,
		}
	}
	get := func(k sweep.Key) (sim.Result, bool) { r, ok := byKey[k]; return r, ok }
	rebuilt, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RebuildSweep("s000001", "wh-test", "", jobs, nil, nil, get); err != nil {
		t.Fatal(err)
	}

	for _, q := range []*api.Query{
		{Op: api.QueryOpRows},
		{Op: api.QueryOpSeries},
		{Op: api.QueryOpPareto},
		{Op: api.QueryOpAggregate, GroupBy: []string{"arch"}},
	} {
		a, err := live.Query(q, "", false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.Query(q, "", false)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("op %s: rebuilt warehouse answers differently:\n live %s\nrebuilt %s", q.Op, aj, bj)
		}
	}

	// A job missing from both store and journal must fail the rebuild.
	delete(byKey, jobs[3].Key())
	empty, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.RebuildSweep("s000002", "wh-test", "", jobs, nil, nil, get); err == nil {
		t.Error("RebuildSweep succeeded with a missing result")
	}
	// With the journaled row available it falls back and succeeds.
	have := make([]bool, len(jobs))
	have[3] = true
	if err := empty.RebuildSweep("s000002", "wh-test", "", jobs, rows, have, get); err != nil {
		t.Errorf("RebuildSweep with journal fallback: %v", err)
	}
}

func TestSegmentFromRows(t *testing.T) {
	jobs, rows := testJobsRows(t)
	seg, err := SegmentFromRows("s000001", "wh-test", jobs, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := buildSegment(t, "s000001", "", jobs, rows)
	q := &api.Query{Op: api.QueryOpSeries}
	if got, exp := evalJSON(t, []*Segment{seg}, q), evalJSON(t, []*Segment{want}, q); got != exp {
		t.Errorf("SegmentFromRows answers differently:\n got %s\nwant %s", got, exp)
	}

	// Rows out of job order are a hard error, not silent misattribution.
	shuffled := append([]sweep.Row(nil), rows...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	if _, err := SegmentFromRows("s000001", "wh-test", jobs, shuffled); err == nil {
		t.Error("SegmentFromRows accepted rows out of job order")
	}
	if _, err := SegmentFromRows("s000001", "wh-test", jobs, rows[:3]); err == nil {
		t.Error("SegmentFromRows accepted a short row slice")
	}
}

// TestBuildersReleasedAfterChurn opens a builder for each of many sweeps
// and ends every one, by a complete Seal, an incomplete Seal or a
// Discard: no builder may outlive its sweep.
func TestBuildersReleasedAfterChurn(t *testing.T) {
	jobs, rows := testJobsRows(t)
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 300
	for n := 0; n < sweeps; n++ {
		id := fmt.Sprintf("s%06d", n)
		w.Begin(id, "wh-test", "", len(jobs))
		added := len(jobs)
		if n%3 != 0 {
			added = n % len(jobs)
		}
		for i := 0; i < added; i++ {
			w.Add(id, i, jobs[i], rows[i])
		}
		if n%3 == 2 {
			w.Discard(id)
			continue
		}
		if err := w.Seal(id); (err == nil) != (added == len(jobs)) {
			t.Fatalf("Seal(%s) with %d of %d rows: err %v", id, added, len(jobs), err)
		}
	}
	w.mu.Lock()
	left := len(w.builders)
	w.mu.Unlock()
	if left != 0 {
		t.Errorf("%d builders left after every sweep ended, want 0", left)
	}
	if got := w.Stats().Segments; got != sweeps/3 {
		t.Errorf("%d segments sealed, want %d", got, sweeps/3)
	}
}
