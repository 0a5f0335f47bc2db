package warehouse

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/sweep"
)

// The segment encoding, one record of the warehouse log (warehouse.go):
//
//	magic "RFW1" | column data | footer JSON | footer length (u32 LE) | magic "1WFR"
//
// The column data is the canonical column sequence back to back, each
// column a fixed-width little-endian array of Segment.N values:
// dictionary indexes (u32) for the string columns, u64 / f64-bits / u32
// for the numeric columns, one byte per row for fp, and 64 bytes per
// row for the content keys. The footer carries the identity, row count,
// string dictionaries, and a CRC-32 of the column data; offsets are not
// stored because the column order and widths are fixed by rows alone.
const (
	segMagic  = "RFW1"
	segTrail  = "1WFR"
	segSchema = 1
	keyHexLen = 64
)

// Canonical column order. Dictionary columns first, then u64, f64, u32,
// then the fp bytes and the key column. Encoder and decoder both walk
// these lists, so they cannot disagree on offsets.
var (
	dictCols = []string{"benchmark", "arch", "family", "caching", "prefetch"}
	u64Cols  = []string{"seed", "instructions", "cycles"}
	f64Cols  = []string{"ipc", "mispredict_rate", "icache_miss_rate", "dcache_miss_rate", "area"}
	u32Cols  = []string{"read_ports", "write_ports", "buses", "upper_sizes", "banks", "clusters", "phys_regs"}
)

// rowBytes is the column data one row occupies.
var rowBytes = 4*len(dictCols) + 8*len(u64Cols) + 8*len(f64Cols) + 4*len(u32Cols) + 1 + keyHexLen

// Segment is one sweep's rows in column-per-metric layout, fully
// resident in memory. Segments are immutable once built.
type Segment struct {
	Sweep  string
	Name   string
	Tenant string
	// N is the row count.
	N int

	dicts map[string][]string // dictionary per string column
	str   map[string][]uint32 // dictionary indexes per string column
	u64   map[string][]uint64
	f64   map[string][]float64
	u32   map[string][]uint32
	fp    []bool
	keys  []string // 64-char hex content keys
	size  int      // encoded byte size, for the metrics accounting
}

// Builder accumulates one sweep's rows by job index, so the sealed
// segment is ordered by the sweep's job expansion — not by completion
// order — and a rebuild from the store reproduces it byte-identically.
type Builder struct {
	sweepID, name, tenant string
	rows                  []sweep.Row
	metas                 []Meta
	have                  []bool
	n                     int
}

// NewBuilder starts a builder for a sweep of jobs rows.
func NewBuilder(sweepID, name, tenant string, jobs int) *Builder {
	return &Builder{
		sweepID: sweepID, name: name, tenant: tenant,
		rows: make([]sweep.Row, jobs), metas: make([]Meta, jobs), have: make([]bool, jobs),
	}
}

// Add records job idx's published row. Re-adding an index overwrites it
// (journal replay may re-deliver rows); out-of-range indexes error.
func (b *Builder) Add(idx int, j sweep.Job, row sweep.Row) error {
	if idx < 0 || idx >= len(b.rows) {
		return fmt.Errorf("warehouse: sweep %s: row index %d out of range [0,%d)", b.sweepID, idx, len(b.rows))
	}
	if !b.have[idx] {
		b.have[idx] = true
		b.n++
	}
	b.rows[idx] = row
	b.metas[idx] = MetaOf(j)
	return nil
}

// Complete reports whether every job index has a row.
func (b *Builder) Complete() bool { return b.n == len(b.rows) }

// Segment freezes the builder into a columnar segment. Missing rows are
// an error: a sealed segment must cover the whole sweep, or queries
// would silently under-aggregate. Each column is sized once and filled
// in one pass; dictionaries intern in row order, so a value's id is the
// row order of its first occurrence.
func (b *Builder) Segment() (*Segment, error) {
	if !b.Complete() {
		return nil, fmt.Errorf("warehouse: sweep %s: %d of %d rows missing",
			b.sweepID, len(b.rows)-b.n, len(b.rows))
	}
	for i := range b.rows {
		if len(b.rows[i].Key) != keyHexLen {
			return nil, fmt.Errorf("warehouse: sweep %s row %d: key %q is not %d hex chars",
				b.sweepID, i, b.rows[i].Key, keyHexLen)
		}
	}
	n := len(b.rows)
	rows, metas := b.rows, b.metas
	s := &Segment{
		Sweep: b.sweepID, Name: b.name, Tenant: b.tenant, N: n,
		dicts: make(map[string][]string, len(dictCols)), str: make(map[string][]uint32, len(dictCols)),
		u64: map[string][]uint64{
			"seed":         column(n, func(i int) uint64 { return rows[i].Seed }),
			"instructions": column(n, func(i int) uint64 { return rows[i].Instructions }),
			"cycles":       column(n, func(i int) uint64 { return rows[i].Cycles }),
		},
		f64: map[string][]float64{
			"ipc":              column(n, func(i int) float64 { return rows[i].IPC }),
			"mispredict_rate":  column(n, func(i int) float64 { return rows[i].MispredRate }),
			"icache_miss_rate": column(n, func(i int) float64 { return rows[i].ICacheMiss }),
			"dcache_miss_rate": column(n, func(i int) float64 { return rows[i].DCacheMiss }),
			"area":             column(n, func(i int) float64 { return metas[i].Area }),
		},
		u32: map[string][]uint32{
			"read_ports":  column(n, func(i int) uint32 { return uint32(metas[i].ReadPorts) }),
			"write_ports": column(n, func(i int) uint32 { return uint32(metas[i].WritePorts) }),
			"buses":       column(n, func(i int) uint32 { return uint32(metas[i].Buses) }),
			"upper_sizes": column(n, func(i int) uint32 { return uint32(metas[i].UpperSizes) }),
			"banks":       column(n, func(i int) uint32 { return uint32(metas[i].Banks) }),
			"clusters":    column(n, func(i int) uint32 { return uint32(metas[i].Clusters) }),
			"phys_regs":   column(n, func(i int) uint32 { return uint32(metas[i].PhysRegs) }),
		},
		fp:   column(n, func(i int) bool { return metas[i].FP }),
		keys: column(n, func(i int) string { return rows[i].Key }),
	}
	ids := map[string]uint32{}
	dict := func(col string, get func(i int) string) {
		clear(ids)
		var d []string
		s.str[col] = column(n, func(i int) uint32 {
			v := get(i)
			id, ok := ids[v]
			if !ok {
				id = uint32(len(d))
				d = append(d, v)
				ids[v] = id
			}
			return id
		})
		if d != nil { // an empty sweep's footer keeps "dicts":{}
			s.dicts[col] = d
		}
	}
	dict("benchmark", func(i int) string { return rows[i].Benchmark })
	dict("arch", func(i int) string { return rows[i].Arch })
	dict("family", func(i int) string { return metas[i].Family })
	dict("caching", func(i int) string { return metas[i].Caching })
	dict("prefetch", func(i int) string { return metas[i].Prefetch })
	return s, nil
}

// column fills a column of n values in one pass.
func column[T any](n int, get func(i int) T) []T {
	vals := make([]T, n)
	for i := range vals {
		vals[i] = get(i)
	}
	return vals
}

// segFooter is the JSON trailer of an encoded segment.
type segFooter struct {
	Schema int                 `json:"schema"`
	Sweep  string              `json:"sweep"`
	Name   string              `json:"name,omitempty"`
	Tenant string              `json:"tenant,omitempty"`
	Rows   int                 `json:"rows"`
	Dicts  map[string][]string `json:"dicts"`
	CRC    uint32              `json:"crc"`
}

// encode renders the segment as a log record, writing the column data
// straight into an output buffer sized for it.
func (s *Segment) encode() []byte {
	le := binary.LittleEndian
	// An estimate of the footer: append grows out if it runs longer.
	footCap := 256 + len(s.Sweep) + len(s.Name) + len(s.Tenant)
	for _, d := range s.dicts {
		for _, v := range d {
			footCap += len(v) + 3
		}
	}
	out := make([]byte, 0, len(segMagic)+s.N*rowBytes+footCap+8)
	out = append(out, segMagic...)
	for _, col := range dictCols {
		for _, v := range s.str[col] {
			out = le.AppendUint32(out, v)
		}
	}
	for _, col := range u64Cols {
		for _, v := range s.u64[col] {
			out = le.AppendUint64(out, v)
		}
	}
	for _, col := range f64Cols {
		for _, v := range s.f64[col] {
			out = le.AppendUint64(out, math.Float64bits(v))
		}
	}
	for _, col := range u32Cols {
		for _, v := range s.u32[col] {
			out = le.AppendUint32(out, v)
		}
	}
	for _, v := range s.fp {
		if v {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	for _, k := range s.keys {
		out = append(out, k...)
	}

	foot, err := json.Marshal(segFooter{
		Schema: segSchema, Sweep: s.Sweep, Name: s.Name, Tenant: s.Tenant,
		Rows: s.N, Dicts: s.dicts, CRC: crc32.ChecksumIEEE(out[len(segMagic):]),
	})
	if err != nil {
		// The footer is plain exported data; Marshal cannot fail on it.
		panic(fmt.Sprintf("warehouse: unencodable footer: %v", err))
	}
	out = append(out, foot...)
	out = le.AppendUint32(out, uint32(len(foot)))
	return append(out, segTrail...)
}

// decodeSegment parses one encoded segment, verifying framing,
// checksum and dictionary references. Any inconsistency is an error:
// the warehouse treats a bad segment as absent and rebuilds it from the
// store rather than serving corrupt aggregates.
func decodeSegment(data []byte) (*Segment, error) {
	if len(data) < 12 || string(data[:4]) != segMagic || string(data[len(data)-4:]) != segTrail {
		return nil, fmt.Errorf("warehouse: bad segment framing")
	}
	le := binary.LittleEndian
	footLen := int(le.Uint32(data[len(data)-8 : len(data)-4]))
	footEnd := len(data) - 8
	if footLen <= 0 || footLen > footEnd-4 {
		return nil, fmt.Errorf("warehouse: bad segment footer length %d", footLen)
	}
	var foot segFooter
	if err := json.Unmarshal(data[footEnd-footLen:footEnd], &foot); err != nil {
		return nil, fmt.Errorf("warehouse: bad segment footer: %w", err)
	}
	if foot.Schema != segSchema {
		return nil, fmt.Errorf("warehouse: segment schema %d not supported", foot.Schema)
	}
	n := foot.Rows
	body := data[4 : footEnd-footLen]
	// Bound n before multiplying: a crafted row count must not overflow
	// into a length that matches the body.
	if n < 0 || n > len(body)/rowBytes || n*rowBytes != len(body) {
		return nil, fmt.Errorf("warehouse: segment body is %d bytes, which does not hold %d rows of %d bytes",
			len(body), n, rowBytes)
	}
	if crc := crc32.ChecksumIEEE(body); crc != foot.CRC {
		return nil, fmt.Errorf("warehouse: segment checksum mismatch")
	}
	s := &Segment{
		Sweep: foot.Sweep, Name: foot.Name, Tenant: foot.Tenant, N: n, size: len(data),
		dicts: foot.Dicts, str: map[string][]uint32{},
		u64: map[string][]uint64{}, f64: map[string][]float64{}, u32: map[string][]uint32{},
	}
	if s.dicts == nil {
		s.dicts = map[string][]string{}
	}
	off := 0
	for _, col := range dictCols {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = le.Uint32(body[off:])
			if int(vals[i]) >= len(s.dicts[col]) {
				return nil, fmt.Errorf("warehouse: %s dictionary index %d out of range", col, vals[i])
			}
			off += 4
		}
		s.str[col] = vals
	}
	for _, col := range u64Cols {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = le.Uint64(body[off:])
			off += 8
		}
		s.u64[col] = vals
	}
	for _, col := range f64Cols {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(le.Uint64(body[off:]))
			off += 8
		}
		s.f64[col] = vals
	}
	for _, col := range u32Cols {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = le.Uint32(body[off:])
			off += 4
		}
		s.u32[col] = vals
	}
	s.fp = make([]bool, n)
	for i := range s.fp {
		s.fp[i] = body[off] != 0
		off++
	}
	// One string backs every key: a segment's keys live and die together.
	keys := string(body[off:])
	s.keys = make([]string, n)
	for i := range s.keys {
		s.keys[i] = keys[i*keyHexLen : (i+1)*keyHexLen]
	}
	return s, nil
}
