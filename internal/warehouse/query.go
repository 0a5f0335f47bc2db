package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/rf/api"
)

// Pagination bounds for rows queries.
const (
	// DefaultLimit is the rows-query page size when the document asks for
	// none.
	DefaultLimit = 1000
	// MaxLimit caps one page; larger requests are clamped, not rejected,
	// so a generous client still pages correctly.
	MaxLimit = 10000
)

var (
	queryOps   = map[string]bool{api.QueryOpRows: true, api.QueryOpAggregate: true, api.QueryOpPareto: true, api.QueryOpSeries: true}
	metricOps  = map[string]bool{"sum": true, "mean": true, "min": true, "max": true}
	metricCols = map[string]bool{
		"ipc": true, "cycles": true, "instructions": true, "area": true,
		"mispredict_rate": true, "icache_miss_rate": true, "dcache_miss_rate": true,
	}
	groupCols = map[string]bool{"benchmark": true, "arch": true, "family": true, "suite": true, "sweep": true}
	dimCols   = map[string]bool{
		"read_ports": true, "write_ports": true, "buses": true,
		"upper_sizes": true, "banks": true, "clusters": true, "phys_regs": true,
	}
)

// ParseQuery decodes and validates a JSON query document. Unknown
// fields, trailing garbage, unsupported schema versions and unknown
// vocabulary are all rejected loudly, mirroring sweep.ParseSpec.
func ParseQuery(data []byte) (*api.Query, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q api.Query
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("warehouse: bad query: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("warehouse: bad query: trailing data after document")
	}
	if err := ValidateQuery(&q); err != nil {
		return nil, err
	}
	return &q, nil
}

// ValidateQuery reports a query-document error, or nil.
func ValidateQuery(q *api.Query) error {
	if q.Schema != 0 && q.Schema != api.Version {
		return fmt.Errorf("warehouse: query schema version %d not supported (this build speaks %d)",
			q.Schema, api.Version)
	}
	if q.Op != "" && !queryOps[q.Op] {
		return fmt.Errorf("warehouse: unknown query op %q", q.Op)
	}
	seen := map[string]bool{}
	for _, g := range q.GroupBy {
		if !groupCols[g] {
			return fmt.Errorf("warehouse: unknown group_by column %q", g)
		}
		if seen[g] {
			return fmt.Errorf("warehouse: duplicate group_by column %q", g)
		}
		seen[g] = true
	}
	for _, m := range q.Metrics {
		if !metricOps[m.Op] {
			return fmt.Errorf("warehouse: unknown metric op %q", m.Op)
		}
		if !metricCols[m.Metric] {
			return fmt.Errorf("warehouse: unknown metric %q", m.Metric)
		}
	}
	for dim, vals := range q.Dims {
		if !dimCols[dim] {
			return fmt.Errorf("warehouse: unknown dimension %q", dim)
		}
		for _, v := range vals {
			if v < 0 {
				return fmt.Errorf("warehouse: dimension %s value %d must be ≥ 0 (0 matches unlimited)", dim, v)
			}
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("warehouse: limit %d must be ≥ 0", q.Limit)
	}
	if q.Cursor != "" {
		if _, err := strconv.ParseUint(q.Cursor, 10, 63); err != nil {
			return fmt.Errorf("warehouse: bad cursor %q", q.Cursor)
		}
	}
	return nil
}

// filter is a query's row predicate. It is compiled once per query and
// bound to each segment in turn: binding resolves the string filters to
// a []bool over the segment's dictionary ids, so the row loop compares
// integers and never hashes a string.
type filter struct {
	strs []strFilter
	dims []dimFilter
}

type strFilter struct {
	col   string
	want  []string
	ids   []uint32 // bound segment's dictionary ids
	allow []bool   // bound segment's dictionary id → wanted
}

type dimFilter struct {
	col  string
	want []uint32
	vals []uint32 // bound segment's column
}

// newFilter compiles the query's filters. Empty lists filter nothing.
func newFilter(q *api.Query) *filter {
	f := &filter{}
	for _, sf := range []struct {
		col  string
		want []string
	}{{"benchmark", q.Benchmarks}, {"arch", q.Archs}, {"family", q.Families}} {
		if len(sf.want) > 0 {
			f.strs = append(f.strs, strFilter{col: sf.col, want: sf.want})
		}
	}
	for dim, vals := range q.Dims {
		if len(vals) == 0 {
			continue
		}
		d := dimFilter{col: dim}
		for _, v := range vals {
			d.want = append(d.want, uint32(v))
		}
		f.dims = append(f.dims, d)
	}
	return f
}

// bind points the filter at one segment. It reports false when a string
// filter names no value of the segment's dictionary: no row can match.
func (f *filter) bind(s *Segment) bool {
	for k := range f.strs {
		sf := &f.strs[k]
		sf.ids = s.str[sf.col]
		sf.allow = sf.allow[:0]
		hit := false
		for _, v := range s.dicts[sf.col] {
			ok := slices.Contains(sf.want, v)
			sf.allow = append(sf.allow, ok)
			hit = hit || ok
		}
		if !hit {
			return false
		}
	}
	for k := range f.dims {
		f.dims[k].vals = s.u32[f.dims[k].col]
	}
	return true
}

func (f *filter) match(i int) bool {
	for k := range f.strs {
		if !f.strs[k].allow[f.strs[k].ids[i]] {
			return false
		}
	}
	for k := range f.dims {
		if !slices.Contains(f.dims[k].want, f.dims[k].vals[i]) {
			return false
		}
	}
	return true
}

// safeHmean is stats.HarmonicMean tolerant of degenerate data: it
// returns 0 for an empty slice or any non-positive value instead of
// panicking, since a warehouse query must not crash the server on a
// pathological row.
func safeHmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
	}
	return stats.HarmonicMean(xs)
}

// Eval runs a validated query over the given segments, scanning them in
// slice order. The scan order is deterministic — segments sorted by
// sweep id, rows in job-expansion order — so float accumulations are
// reproducible and a rebuilt warehouse answers byte-identically.
//
// Each segment's column slices and dictionaries are resolved once per
// query; the row loops then only index slices and add floats. Dictionary
// ids are local to a segment, so every op maps them to query-wide
// indexes, registering a value (an arch's series, a benchmark's suite,
// an arch's area) at the first matched row that carries it, exactly as
// a row-at-a-time scan would.
func Eval(segs []*Segment, q *api.Query) (*api.QueryResult, error) {
	e, err := newEvalState(q)
	if err != nil {
		return nil, err
	}
	e.advance(segs)
	return e.result(), nil
}

// evalState is one query's scan in progress: Eval is newEvalState, one
// advance over every segment, and result. Each segment's contribution
// depends only on the state the segments before it left, so advancing
// over segs[:k] and then over segs[k:] leaves the state one advance over
// segs would, and renders the same answer byte for byte.
type evalState struct {
	op, sweep     string
	limit, offset int
	f             *filter
	g             *grouper
	t             *ipcTable
	matched       int
	rows          []api.QueryRow
}

// newEvalState validates a query and returns its empty scan.
func newEvalState(q *api.Query) (*evalState, error) {
	if err := ValidateQuery(q); err != nil {
		return nil, err
	}
	e := &evalState{op: q.Op, sweep: q.Sweep, limit: q.Limit, f: newFilter(q)}
	if e.op == "" {
		e.op = api.QueryOpRows
	}
	if e.limit == 0 {
		e.limit = DefaultLimit
	}
	if e.limit > MaxLimit {
		e.limit = MaxLimit
	}
	if q.Cursor != "" {
		v, err := strconv.ParseUint(q.Cursor, 10, 63)
		if err != nil {
			return nil, fmt.Errorf("warehouse: bad cursor %q", q.Cursor)
		}
		e.offset = int(v)
	}
	switch e.op {
	case api.QueryOpAggregate:
		e.g = newGrouper(q)
	case api.QueryOpSeries, api.QueryOpPareto:
		e.t = &ipcTable{archIndex: map[string]int32{}, benchIndex: map[string]int32{}}
	}
	return e, nil
}

// advance folds the matched rows of segs into the scan, in slice order.
func (e *evalState) advance(segs []*Segment) {
	for _, s := range segs {
		if e.sweep != "" && s.Sweep != e.sweep {
			continue
		}
		if !e.f.bind(s) {
			continue
		}
		switch e.op {
		case api.QueryOpRows:
			var rowAt func(int) api.QueryRow
			for i := 0; i < s.N; i++ {
				if !e.f.match(i) {
					continue
				}
				if e.matched >= e.offset && len(e.rows) < e.limit {
					if rowAt == nil {
						rowAt = rowReader(s)
					}
					e.rows = append(e.rows, rowAt(i))
				}
				e.matched++
			}
		case api.QueryOpAggregate:
			e.matched += e.g.add(s, e.f)
		case api.QueryOpSeries, api.QueryOpPareto:
			e.matched += e.t.add(s, e.f)
		}
	}
}

// result renders the answer over the segments advanced so far. It leaves
// the scan as it was and shares no mutable memory with it, so the scan
// may advance further after its answer is handed out.
func (e *evalState) result() *api.QueryResult {
	res := &api.QueryResult{Schema: api.Version, Op: e.op, Matched: e.matched}
	switch e.op {
	case api.QueryOpRows:
		res.Rows = slices.Clone(e.rows)
		if e.offset+len(e.rows) < e.matched && len(e.rows) == e.limit {
			res.NextCursor = strconv.Itoa(e.offset + len(e.rows))
		}
	case api.QueryOpAggregate:
		res.Groups = e.g.groups()
	case api.QueryOpSeries:
		res.Series = e.t.series()
	case api.QueryOpPareto:
		res.Frontier = e.t.frontier()
	}
	return res
}

// rowReader looks up a segment's columns once and returns a function
// that materializes one of its rows as a wire row.
func rowReader(s *Segment) func(i int) api.QueryRow {
	bench, arch, family := s.str["benchmark"], s.str["arch"], s.str["family"]
	benchDict, archDict, familyDict := s.dicts["benchmark"], s.dicts["arch"], s.dicts["family"]
	seed, instrs, cycles := s.u64["seed"], s.u64["instructions"], s.u64["cycles"]
	ipc, mispred, icache := s.f64["ipc"], s.f64["mispredict_rate"], s.f64["icache_miss_rate"]
	dcache, area := s.f64["dcache_miss_rate"], s.f64["area"]
	return func(i int) api.QueryRow {
		return api.QueryRow{
			Sweep:        s.Sweep,
			Benchmark:    benchDict[bench[i]],
			Arch:         archDict[arch[i]],
			Family:       familyDict[family[i]],
			FP:           s.fp[i],
			Seed:         seed[i],
			Instructions: instrs[i],
			Cycles:       cycles[i],
			IPC:          ipc[i],
			MispredRate:  mispred[i],
			ICacheMiss:   icache[i],
			DCacheMiss:   dcache[i],
			Area:         area[i],
			Key:          s.keys[i],
		}
	}
}

// grouper accumulates the aggregate op's group-by buckets. A bucket is
// identified by its group values' query-wide ids, so a bucket seen in an
// earlier segment is found again without building its string key.
type grouper struct {
	metrics []api.QueryMetric
	cols    []groupCol
	mcols   []metricCol
	index   map[groupKey]*bucket
	buckets []*bucket
	slots   []*bucket // bound segment: combined dictionary ids → bucket
}

// groupKey holds one bucket's query-wide value ids, one per group_by
// column (validation admits at most one of each of the five columns).
type groupKey [5]int32

// groupCol is one group_by column bound to a segment. Every column reads
// as a small dictionary: the string columns' own, suite's fixed
// int/fp pair, and sweep's single value.
type groupCol struct {
	name   string
	values map[string]int32 // value → query-wide id
	ids    []uint32         // per-row dictionary ids (string columns)
	fp     []bool           // per-row suite flag (suite)
	dict   []string
	global []int32 // dictionary id → query-wide id
	stride int     // weight of this column's id in the combined slot
}

var (
	suiteDict   = []string{"int", "fp"}
	suiteGlobal = []int32{0, 1}
)

func (c *groupCol) local(i int) int {
	switch {
	case c.ids != nil:
		return int(c.ids[i])
	case c.fp != nil && c.fp[i]:
		return 1
	}
	return 0
}

// metricCol is one metric's column in a bound segment; a metric the
// segment lacks reads as 0.
type metricCol struct {
	u64 []uint64
	f64 []float64
}

func (m *metricCol) at(i int) float64 {
	switch {
	case m.f64 != nil:
		return m.f64[i]
	case m.u64 != nil:
		return float64(m.u64[i])
	}
	return 0
}

type bucket struct {
	key    []string
	joined string // the sort key: each value NUL-terminated
	count  int
	sum    []float64
	min    []float64
	max    []float64
}

func newGrouper(q *api.Query) *grouper {
	metrics := q.Metrics
	if len(metrics) == 0 {
		metrics = []api.QueryMetric{{Op: "mean", Metric: "ipc"}}
	}
	g := &grouper{
		metrics: metrics,
		cols:    make([]groupCol, len(q.GroupBy)),
		mcols:   make([]metricCol, len(metrics)),
		index:   map[groupKey]*bucket{},
	}
	for k, col := range q.GroupBy {
		g.cols[k] = groupCol{name: col, values: map[string]int32{}}
	}
	return g
}

// bind resolves the group columns and metrics against one segment and
// clears the slot table, which has one slot per combination of the
// segment's dictionary ids. Sweeps expand as benchmark × arch products,
// so the table stays within a small multiple of the segment's rows.
func (g *grouper) bind(s *Segment) {
	slots := 1
	for k := range g.cols {
		c := &g.cols[k]
		c.ids, c.fp = nil, nil
		switch c.name {
		case "suite":
			c.fp, c.dict, c.global = s.fp, suiteDict, suiteGlobal
		case "sweep":
			c.dict = append(c.dict[:0], s.Sweep)
			c.global = append(c.global[:0], c.valueID(s.Sweep))
		default:
			c.ids, c.dict = s.str[c.name], s.dicts[c.name]
			c.global = c.global[:0]
			for _, v := range c.dict {
				c.global = append(c.global, c.valueID(v))
			}
		}
		c.stride = slots
		slots *= len(c.dict)
	}
	if cap(g.slots) < slots {
		g.slots = make([]*bucket, slots)
	}
	g.slots = g.slots[:slots]
	clear(g.slots)
	for mi, m := range g.metrics {
		g.mcols[mi] = metricCol{u64: s.u64[m.Metric], f64: s.f64[m.Metric]}
	}
}

// valueID interns one of the column's values.
func (c *groupCol) valueID(v string) int32 {
	id, ok := c.values[v]
	if !ok {
		id = int32(len(c.values))
		c.values[v] = id
	}
	return id
}

// add accumulates one segment's matched rows and returns their count.
func (g *grouper) add(s *Segment, f *filter) int {
	g.bind(s)
	n := 0
	for i := 0; i < s.N; i++ {
		if !f.match(i) {
			continue
		}
		slot := 0
		for k := range g.cols {
			slot += g.cols[k].local(i) * g.cols[k].stride
		}
		b := g.slots[slot]
		if b == nil {
			b = g.bucketAt(i)
			g.slots[slot] = b
		}
		for mi := range g.mcols {
			v := g.mcols[mi].at(i)
			if b.count == 0 {
				b.min[mi], b.max[mi] = v, v
			} else {
				if v < b.min[mi] {
					b.min[mi] = v
				}
				if v > b.max[mi] {
					b.max[mi] = v
				}
			}
			b.sum[mi] += v
		}
		b.count++
		n++
	}
	return n
}

// bucketAt finds or creates the bucket of row i of the bound segment.
func (g *grouper) bucketAt(i int) *bucket {
	var key groupKey
	for k := range g.cols {
		key[k] = g.cols[k].global[g.cols[k].local(i)]
	}
	if b := g.index[key]; b != nil {
		return b
	}
	b := &bucket{
		key: make([]string, len(g.cols)),
		sum: make([]float64, len(g.metrics)),
		min: make([]float64, len(g.metrics)),
		max: make([]float64, len(g.metrics)),
	}
	for k := range g.cols {
		b.key[k] = g.cols[k].dict[g.cols[k].local(i)]
		b.joined += b.key[k] + "\x00"
	}
	g.index[key] = b
	g.buckets = append(g.buckets, b)
	return b
}

// groups renders the aggregate buckets sorted by key, with each value
// named "op_metric". It sorts a copy of the buckets, which stay in
// creation order: the order a later sort's ties fall back to.
func (g *grouper) groups() []api.QueryGroup {
	buckets := slices.Clone(g.buckets)
	sort.SliceStable(buckets, func(a, b int) bool { return buckets[a].joined < buckets[b].joined })
	out := make([]api.QueryGroup, 0, len(buckets))
	for _, b := range buckets {
		qg := api.QueryGroup{Key: slices.Clone(b.key), Count: b.count, Values: map[string]float64{}}
		for mi, m := range g.metrics {
			var v float64
			switch m.Op {
			case "sum":
				v = b.sum[mi]
			case "mean":
				v = b.sum[mi] / float64(b.count)
			case "min":
				v = b.min[mi]
			case "max":
				v = b.max[mi]
			}
			qg.Values[m.Op+"_"+m.Metric] = v
		}
		out = append(out, qg)
	}
	return out
}

// ipcTable accumulates the series and pareto ops' per-arch,
// per-benchmark mean IPC cells in one dense arch × benchmark table.
type ipcTable struct {
	archIndex  map[string]int32
	archOrder  []string  // first-seen order
	archArea   []float64 // at the arch's first matched row
	benchIndex map[string]int32
	benchOrder []string // first-seen order
	benchFP    []bool
	cells      [][]cell // [arch][benchmark], grown as benchmarks appear

	archOf, benchOf []int32 // bound segment: dictionary id → index, -1 unseen
}

type cell struct {
	sum float64
	n   int
}

// unseen sizes a dictionary-id map for a segment, every id unresolved.
func unseen(m []int32, n int) []int32 {
	m = m[:0]
	for range n {
		m = append(m, -1)
	}
	return m
}

// add accumulates one segment's matched rows and returns their count.
func (t *ipcTable) add(s *Segment, f *filter) int {
	archIDs, benchIDs := s.str["arch"], s.str["benchmark"]
	archDict, benchDict := s.dicts["arch"], s.dicts["benchmark"]
	ipc, area, fp := s.f64["ipc"], s.f64["area"], s.fp
	t.archOf, t.benchOf = unseen(t.archOf, len(archDict)), unseen(t.benchOf, len(benchDict))
	n := 0
	for i := 0; i < s.N; i++ {
		if !f.match(i) {
			continue
		}
		a := t.archOf[archIDs[i]]
		if a < 0 {
			a = t.arch(archDict[archIDs[i]], area[i])
			t.archOf[archIDs[i]] = a
		}
		b := t.benchOf[benchIDs[i]]
		if b < 0 {
			b = t.bench(benchDict[benchIDs[i]], fp[i])
			t.benchOf[benchIDs[i]] = b
		}
		row := t.cells[a]
		if int(b) >= len(row) {
			row = append(row, make([]cell, len(t.benchOrder)-len(row))...)
			t.cells[a] = row
		}
		row[b].sum += ipc[i]
		row[b].n++
		n++
	}
	return n
}

// arch returns an arch's index, registering it with its area if new.
func (t *ipcTable) arch(name string, area float64) int32 {
	if a, ok := t.archIndex[name]; ok {
		return a
	}
	a := int32(len(t.archOrder))
	t.archIndex[name] = a
	t.archOrder = append(t.archOrder, name)
	t.archArea = append(t.archArea, area)
	t.cells = append(t.cells, nil)
	return a
}

// bench returns a benchmark's index, registering it with its suite if
// new.
func (t *ipcTable) bench(name string, fp bool) int32 {
	if b, ok := t.benchIndex[name]; ok {
		return b
	}
	b := int32(len(t.benchOrder))
	t.benchIndex[name] = b
	t.benchOrder = append(t.benchOrder, name)
	t.benchFP = append(t.benchFP, fp)
	return b
}

// suiteBenchOrder returns the matched benchmarks' indexes in canonical
// suite order — SPECint95 then SPECfp95, as the paper's figures list
// them — with any benchmark unknown to the registry appended in
// first-seen order (a forward-compatibility hatch for custom workloads).
func (t *ipcTable) suiteBenchOrder() []int32 {
	known := map[string]bool{}
	var out []int32
	for _, p := range trace.All() {
		known[p.Name] = true
		if b, ok := t.benchIndex[p.Name]; ok {
			out = append(out, b)
		}
	}
	for b, name := range t.benchOrder {
		if !known[name] {
			out = append(out, int32(b))
		}
	}
	return out
}

// series renders one QuerySeries per architecture in first-seen order.
func (t *ipcTable) series() []api.QuerySeries {
	benches := t.suiteBenchOrder()
	out := make([]api.QuerySeries, 0, len(t.archOrder))
	for a, arch := range t.archOrder {
		row := t.cells[a]
		s := api.QuerySeries{Arch: arch}
		var intIPC, fpIPC []float64
		for _, b := range benches {
			if int(b) >= len(row) || row[b].n == 0 {
				continue
			}
			ipc := row[b].sum / float64(row[b].n)
			s.Points = append(s.Points, api.SeriesPoint{Benchmark: t.benchOrder[b], IPC: ipc})
			if t.benchFP[b] {
				fpIPC = append(fpIPC, ipc)
			} else {
				intIPC = append(intIPC, ipc)
			}
		}
		s.IntHmean = safeHmean(intIPC)
		s.FPHmean = safeHmean(fpIPC)
		out = append(out, s)
	}
	return out
}

// frontier extracts the (area, IPC) Pareto frontier over the matched
// architectures: per-arch harmonic mean of per-benchmark mean IPC
// against the arch's modeled area. Architectures with unmodeled area
// (unbounded ports) or degenerate IPC are excluded — a frontier needs
// both coordinates.
func (t *ipcTable) frontier() []api.ParetoPoint {
	var pts []api.ParetoPoint
	for a, arch := range t.archOrder {
		ar := t.archArea[a]
		if ar <= 0 {
			continue
		}
		var ipcs []float64
		for _, c := range t.cells[a] {
			if c.n > 0 {
				ipcs = append(ipcs, c.sum/float64(c.n))
			}
		}
		sort.Float64s(ipcs)
		hm := safeHmean(ipcs)
		if hm <= 0 {
			continue
		}
		pts = append(pts, api.ParetoPoint{Arch: arch, IPC: hm, Area: ar})
	}
	cost := make([]float64, len(pts))
	value := make([]float64, len(pts))
	for i, p := range pts {
		cost[i], value[i] = p.Area, p.IPC
	}
	keep := stats.ParetoFrontier(cost, value)
	out := make([]api.ParetoPoint, 0, len(keep))
	for _, i := range keep {
		out = append(out, pts[i])
	}
	return out
}
