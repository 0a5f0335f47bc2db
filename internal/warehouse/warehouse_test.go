package warehouse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/wal"
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

// newWarehouse opens a warehouse on dir and closes it when the test
// ends.
func newWarehouse(t testing.TB, dir string, opts Options) *Warehouse {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// sealRows runs one sweep of jobs through Begin, Add and Seal.
func sealRows(t testing.TB, w *Warehouse, id, tenant string, jobs []sweep.Job, rows []sweep.Row) {
	t.Helper()
	w.Begin(id, "wh-test", tenant, len(jobs))
	for i := range jobs {
		w.Add(id, i, jobs[i], rows[i])
	}
	if err := w.Seal(id); err != nil {
		t.Fatal(err)
	}
}

// logLines collects a warehouse's log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
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

// TestSegmentEncodingPinned pins the bytes of a Figure 6 grid segment.
// Logs written by earlier builds hold segments in this encoding, and a
// segment rebuilt from the store must match the one sealed live.
func TestSegmentEncodingPinned(t *testing.T) {
	jobs, rows := specJobsRows(t, gridSpecJSON, 1)
	got := fmt.Sprintf("%x", sha256.Sum256(buildSegment(t, "s000001", "acme", jobs, rows).encode()))
	if want := "d95afd003237e92fc8240425a2585593c78c1a5a6c160d6b43ba95d9a8ddbf4f"; got != want {
		t.Errorf("grid segment sha256 = %s, want %s", got, want)
	}
}

// TestDecodeSegmentRejectsRowOverflow pins the row-count bound: a footer
// whose row count times the row width overflows to the body length must
// be rejected, not allocate columns of that many rows.
func TestDecodeSegmentRejectsRowOverflow(t *testing.T) {
	if _, err := decodeSegment(overflowSegment()); err == nil {
		t.Fatal("decodeSegment accepted a row count that overflows the body length")
	}
}

// overflowSegment is a one-byte body under a footer claiming
// 4898287974374852689 rows: that count times the 177-byte row width
// wraps around to 1.
func overflowSegment() []byte {
	body := []byte{0}
	foot := fmt.Sprintf(`{"schema":1,"sweep":"s000001","rows":4898287974374852689,"dicts":{},"crc":%d}`,
		crc32.ChecksumIEEE(body))
	data := append([]byte(segMagic), body...)
	data = append(data, foot...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(foot)))
	return append(data, segTrail...)
}

// TestOpenSkipsCorruptRecords writes a log whose records are framed
// correctly but do not all decode: a segment whose column data fails
// its CRC, and bytes that are no segment at all. Open must skip and log
// each, and load every good segment around them.
func TestOpenSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	bad := buildSegment(t, "s000002", "", jobs, rows).encode()
	bad[10] ^= 0xff
	log, err := wal.Open(dir, wal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{
		buildSegment(t, "s000001", "", jobs, rows).encode(),
		bad,
		[]byte("not a segment"),
		buildSegment(t, "s000003", "", jobs, rows).encode(),
	} {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var logs logLines
	w := newWarehouse(t, dir, Options{Logf: logs.logf})
	st := w.Stats()
	if st.Segments != 2 || st.Rows != 2*len(jobs) {
		t.Fatalf("Open loaded %d segments / %d rows, want 2 / %d", st.Segments, st.Rows, 2*len(jobs))
	}
	if !w.Has("s000001") || w.Has("s000002") || !w.Has("s000003") {
		t.Error("Open kept the wrong segments")
	}
	if len(logs.lines) != 2 || !strings.Contains(logs.lines[0], "checksum") {
		t.Errorf("Open logged %q, want one line per skipped record, the first a checksum mismatch", logs.lines)
	}
}

// TestOpenIgnoresSegmentFiles opens a directory of the old layout, one
// *.seg file per sweep: none is read, and one line counts them.
func TestOpenIgnoresSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	for _, id := range []string{"s000001", "s000002", "s000003"} {
		data := buildSegment(t, id, "", jobs, rows).encode()
		if err := os.WriteFile(filepath.Join(dir, id+".seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var logs logLines
	w := newWarehouse(t, dir, Options{Logf: logs.logf})
	if st := w.Stats(); st.Segments != 0 || st.Rows != 0 {
		t.Errorf("Open loaded %d segments / %d rows from *.seg files, want none", st.Segments, st.Rows)
	}
	if len(logs.lines) != 1 || !strings.Contains(logs.lines[0], "3 segment files") {
		t.Errorf("Open logged %q, want one line counting 3 segment files", logs.lines)
	}
	if _, err := os.Stat(filepath.Join(dir, "s000001.seg")); err != nil {
		t.Errorf("Open did not leave the old files in place: %v", err)
	}
}

// TestLogCompactsReusedIDs reuses every sweep id of a journal-less
// server across many restarts. Each reuse leaves a replaced segment and
// a drop record behind as dead bytes, so without compaction the log
// would grow with every restart; with it, the directory stays within
// twice the live segment bytes plus one WAL segment.
func TestLogCompactsReusedIDs(t *testing.T) {
	const (
		sweeps          = 10
		restarts        = 40
		walSegmentBytes = 4 << 20 // internal/wal's default rotation size
	)
	dir := t.TempDir()
	jobs, rows := specJobsRows(t, gridSpecJSON, 0)
	var written int64
	for r := 0; r < restarts; r++ {
		w := newWarehouse(t, dir, Options{})
		st := w.Stats()
		if r > 0 && (st.Segments != sweeps || st.Rows != sweeps*len(jobs)) {
			t.Fatalf("restart %d: %d segments / %d rows, want %d / %d",
				r, st.Segments, st.Rows, sweeps, sweeps*len(jobs))
		}
		if got, limit := dirBytes(t, dir), 2*st.Bytes+walSegmentBytes; got > limit {
			t.Fatalf("restart %d: log is %d bytes, limit %d (live %d)", r, got, limit, st.Bytes)
		}
		for i := 1; i <= sweeps; i++ {
			sealRows(t, w, fmt.Sprintf("s%06d", i), "", jobs, rows)
		}
		written += w.Stats().Bytes
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if limit := 2*written/restarts + walSegmentBytes; written <= limit {
		t.Fatalf("the test wrote %d bytes, within the %d limit even without compaction", written, limit)
	}
}

func TestSealRequiresCompleteBuilder(t *testing.T) {
	jobs, rows := testJobsRows(t)
	w := newWarehouse(t, t.TempDir(), Options{})
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

// TestSealUnloggedServesFromMemory pins the failed-append path: a
// segment the log refuses (here, because it is closed) is still served
// from memory and counted as an ingest error, and a restart does not
// find it.
func TestSealUnloggedServesFromMemory(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	w := newWarehouse(t, dir, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sealRows(t, w, "s000001", "", jobs, rows)
	if !w.Has("s000001") {
		t.Error("an unlogged segment is not served from memory")
	}
	if got := w.Stats().IngestErrors; got != 1 {
		t.Errorf("IngestErrors = %d, want 1", got)
	}
	if newWarehouse(t, dir, Options{}).Has("s000001") {
		t.Error("a restart found a segment the log refused")
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
	w := newWarehouse(t, dir, Options{})
	sealRows(t, w, "s000001", "acme", jobs, rows)
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

	// A restart loads the sealed segment back from the log.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := newWarehouse(t, dir, Options{})
	if !w2.Has("s000001") {
		t.Fatal("reopened warehouse lost the segment")
	}
	// Reusing the sweep id (journal-less server restart) drops the stale
	// sealed segment immediately, and for good: the reused sweep is
	// canceled, and the next restart must not bring the old one back.
	w2.Begin("s000001", "other", "", len(jobs))
	if w2.Has("s000001") {
		t.Error("Begin kept a stale segment under a reused sweep id")
	}
	w2.Discard("s000001")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := newWarehouse(t, dir, Options{})
	if w3.Has("s000001") {
		t.Error("a reopened warehouse brought back the segment Begin dropped")
	}
	if st := w3.Stats(); st.Segments != 0 || st.Rows != 0 {
		t.Errorf("reopened after the drop: Stats = %+v, want no segments", st)
	}
}

// TestConcurrentSealsReplayAsServed races seals, drops (Begin on a
// reused id) and queries over a few shared sweep ids. Whatever order
// they interleave in, a reopened warehouse must answer exactly as the
// live one did: the log holds segments and drops in the order memory
// applied them.
func TestConcurrentSealsReplayAsServed(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	ids := []string{"s000001", "s000002", "s000003"}
	w := newWarehouse(t, dir, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		// Each goroutine's rows differ, so a replay that applied two
		// seals of one id in the other order would answer differently.
		mine := append([]sweep.Row(nil), rows...)
		for i := range mine {
			mine[i].IPC += float64(g)
		}
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				id := ids[(g+k)%len(ids)]
				w.Begin(id, "wh-test", "", len(jobs))
				for i := range jobs {
					w.Add(id, i, jobs[i], mine[i])
				}
				// Another goroutine's Begin may have replaced this builder
				// mid-sweep; that seal is an ingest error, not a failure.
				w.Seal(id)
				if _, err := w.Query(&api.Query{Op: api.QueryOpRows}, "", false); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	want := evalAll(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := evalAll(t, newWarehouse(t, dir, Options{})); got != want {
		t.Errorf("reopened warehouse answers differently:\n got %s\nwant %s", got, want)
	}
}

// evalAll renders every row a warehouse serves.
func evalAll(t *testing.T, w *Warehouse) string {
	t.Helper()
	res, err := w.Query(&api.Query{Op: api.QueryOpRows, Limit: MaxLimit}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSegmentOrderAcrossIDWidth pins the scan order Query hands to Eval:
// shorter sweep ids first, then lexicographic, so "s1000000" follows
// "s999999" after the zero-padded width overflows. The order must hold
// whatever order segments are sealed, replaced, dropped or reloaded in,
// and the row total must follow every change.
func TestSegmentOrderAcrossIDWidth(t *testing.T) {
	dir := t.TempDir()
	jobs, rows := testJobsRows(t)
	w := newWarehouse(t, dir, Options{})
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
		sealRows(t, w, id, "", jobs, rows)
	}
	sealRows(t, w, "s999999", "", jobs, rows) // replaced in place
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

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := newWarehouse(t, dir, Options{})
	if got := order(w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened: scan order %v, want %v", got, want)
	}
	if st, st2 := w.Stats(), w2.Stats(); st2.Rows != st.Rows || st2.Bytes != st.Bytes {
		t.Errorf("reopened: Stats = %+v, want rows and bytes of %+v", st2, st)
	}
}

func TestRebuildSweepMatchesIngest(t *testing.T) {
	jobs, rows := testJobsRows(t)
	live := newWarehouse(t, t.TempDir(), Options{})
	sealRows(t, live, "s000001", "", jobs, rows)

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
	rebuilt := newWarehouse(t, t.TempDir(), Options{})
	if err := rebuilt.RebuildSweep("s000001", "wh-test", "", jobs, nil, get); err != nil {
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
	empty := newWarehouse(t, t.TempDir(), Options{})
	if err := empty.RebuildSweep("s000002", "wh-test", "", jobs, nil, get); err == nil {
		t.Error("RebuildSweep succeeded with a missing result")
	}
	// With the journaled row available it falls back and succeeds.
	journaled := make([]sweep.Row, len(jobs))
	journaled[3] = rows[3]
	if err := empty.RebuildSweep("s000002", "wh-test", "", jobs, journaled, get); err != nil {
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
	w := newWarehouse(t, t.TempDir(), Options{})
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
