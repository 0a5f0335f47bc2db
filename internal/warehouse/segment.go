package warehouse

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sweep"
)

// The on-disk segment layout:
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
// would silently under-aggregate.
func (b *Builder) Segment() (*Segment, error) {
	if !b.Complete() {
		return nil, fmt.Errorf("warehouse: sweep %s: %d of %d rows missing",
			b.sweepID, len(b.rows)-b.n, len(b.rows))
	}
	s := &Segment{
		Sweep: b.sweepID, Name: b.name, Tenant: b.tenant, N: len(b.rows),
		dicts: map[string][]string{}, str: map[string][]uint32{},
		u64: map[string][]uint64{}, f64: map[string][]float64{}, u32: map[string][]uint32{},
	}
	interned := map[string]map[string]uint32{}
	intern := func(col, v string) uint32 {
		m := interned[col]
		if m == nil {
			m = map[string]uint32{}
			interned[col] = m
		}
		id, ok := m[v]
		if !ok {
			id = uint32(len(s.dicts[col]))
			s.dicts[col] = append(s.dicts[col], v)
			m[v] = id
		}
		return id
	}
	for i := range b.rows {
		row, meta := b.rows[i], b.metas[i]
		s.str["benchmark"] = append(s.str["benchmark"], intern("benchmark", row.Benchmark))
		s.str["arch"] = append(s.str["arch"], intern("arch", row.Arch))
		s.str["family"] = append(s.str["family"], intern("family", meta.Family))
		s.str["caching"] = append(s.str["caching"], intern("caching", meta.Caching))
		s.str["prefetch"] = append(s.str["prefetch"], intern("prefetch", meta.Prefetch))
		s.u64["seed"] = append(s.u64["seed"], row.Seed)
		s.u64["instructions"] = append(s.u64["instructions"], row.Instructions)
		s.u64["cycles"] = append(s.u64["cycles"], row.Cycles)
		s.f64["ipc"] = append(s.f64["ipc"], row.IPC)
		s.f64["mispredict_rate"] = append(s.f64["mispredict_rate"], row.MispredRate)
		s.f64["icache_miss_rate"] = append(s.f64["icache_miss_rate"], row.ICacheMiss)
		s.f64["dcache_miss_rate"] = append(s.f64["dcache_miss_rate"], row.DCacheMiss)
		s.f64["area"] = append(s.f64["area"], meta.Area)
		s.u32["read_ports"] = append(s.u32["read_ports"], uint32(meta.ReadPorts))
		s.u32["write_ports"] = append(s.u32["write_ports"], uint32(meta.WritePorts))
		s.u32["buses"] = append(s.u32["buses"], uint32(meta.Buses))
		s.u32["upper_sizes"] = append(s.u32["upper_sizes"], uint32(meta.UpperSizes))
		s.u32["banks"] = append(s.u32["banks"], uint32(meta.Banks))
		s.u32["clusters"] = append(s.u32["clusters"], uint32(meta.Clusters))
		s.u32["phys_regs"] = append(s.u32["phys_regs"], uint32(meta.PhysRegs))
		s.fp = append(s.fp, meta.FP)
		if len(row.Key) != keyHexLen {
			return nil, fmt.Errorf("warehouse: sweep %s row %d: key %q is not %d hex chars",
				b.sweepID, i, row.Key, keyHexLen)
		}
		s.keys = append(s.keys, row.Key)
	}
	return s, nil
}

// segFooter is the JSON trailer of a segment file.
type segFooter struct {
	Schema int                 `json:"schema"`
	Sweep  string              `json:"sweep"`
	Name   string              `json:"name,omitempty"`
	Tenant string              `json:"tenant,omitempty"`
	Rows   int                 `json:"rows"`
	Dicts  map[string][]string `json:"dicts"`
	CRC    uint32              `json:"crc"`
}

// encode renders the segment in the on-disk layout.
func (s *Segment) encode() []byte {
	var data bytes.Buffer
	le := binary.LittleEndian
	var b8 [8]byte
	for _, col := range dictCols {
		for _, v := range s.str[col] {
			le.PutUint32(b8[:4], v)
			data.Write(b8[:4])
		}
	}
	for _, col := range u64Cols {
		for _, v := range s.u64[col] {
			le.PutUint64(b8[:], v)
			data.Write(b8[:])
		}
	}
	for _, col := range f64Cols {
		for _, v := range s.f64[col] {
			le.PutUint64(b8[:], math.Float64bits(v))
			data.Write(b8[:])
		}
	}
	for _, col := range u32Cols {
		for _, v := range s.u32[col] {
			le.PutUint32(b8[:4], v)
			data.Write(b8[:4])
		}
	}
	for _, v := range s.fp {
		if v {
			data.WriteByte(1)
		} else {
			data.WriteByte(0)
		}
	}
	for _, k := range s.keys {
		data.WriteString(k)
	}

	foot, err := json.Marshal(segFooter{
		Schema: segSchema, Sweep: s.Sweep, Name: s.Name, Tenant: s.Tenant,
		Rows: s.N, Dicts: s.dicts, CRC: crc32.ChecksumIEEE(data.Bytes()),
	})
	if err != nil {
		// The footer is plain exported data; Marshal cannot fail on it.
		panic(fmt.Sprintf("warehouse: unencodable footer: %v", err))
	}
	out := make([]byte, 0, 4+data.Len()+len(foot)+8)
	out = append(out, segMagic...)
	out = append(out, data.Bytes()...)
	out = append(out, foot...)
	le.PutUint32(b8[:4], uint32(len(foot)))
	out = append(out, b8[:4]...)
	out = append(out, segTrail...)
	return out
}

// writeSegData persists one encoded segment atomically (tmp + rename)
// under dir.
func writeSegData(dir, sweepID string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".seg-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, segFileName(sweepID)))
}

// segFileName maps a sweep id to its segment file name.
func segFileName(sweepID string) string { return sweepID + ".seg" }

// decodeSegment parses one segment file's bytes, verifying framing,
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
	if n < 0 {
		return nil, fmt.Errorf("warehouse: negative row count %d", n)
	}
	body := data[4 : footEnd-footLen]
	want := n * (4*len(dictCols) + 8*len(u64Cols) + 8*len(f64Cols) + 4*len(u32Cols) + 1 + keyHexLen)
	if len(body) != want {
		return nil, fmt.Errorf("warehouse: segment body is %d bytes, want %d for %d rows", len(body), want, n)
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
	s.keys = make([]string, n)
	for i := range s.keys {
		s.keys[i] = string(body[off : off+keyHexLen])
		off += keyHexLen
	}
	return s, nil
}
