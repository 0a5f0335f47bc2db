// Package warehouse is the read-side result index of the sweep service:
// a columnar, disk-backed warehouse of completed sweep rows with a
// server-side query evaluator (filter, group-by, Pareto frontier,
// figure-series extraction).
//
// One segment per sweep, in column-per-metric layout with the string
// columns dictionary-encoded and a JSON footer schema (segment.go).
// Rows are ingested at row-publish time through a seam next to the
// write-ahead journal hook in internal/server, ordered by job index —
// never by completion order — and sealed when the sweep finishes.
//
// Sealed segments persist as records of one append-only log
// (internal/wal) in the warehouse directory, made durable by its group
// commit: a machine crash can lose the seals of the last sync window
// (2 ms). A journaled server rebuilds those sweeps at its next start; a
// server without a journal loses them. A record is either a segment's
// encoding or a drop record (dropMagic, then the sweep id) written when
// a reused sweep id retires the old segment. Open replays the records
// in order: a later segment for a sweep id replaces the earlier one and
// a drop removes it. The bytes of replaced and dropped records are
// dead; when Open finds more dead bytes than live ones, it compacts the
// log down to a snapshot of the live segments.
//
// The warehouse is never authoritative: every column is a pure function
// of (job, result), both recoverable from the content-addressed store,
// so a deleted or corrupt warehouse directory is rebuilt by scanning
// the store (RebuildSweep) and answers every query byte-identically.
// That invariant is also why segments exclude the stream-level "cached"
// flag: delivery provenance is not reconstructible, results are.
package warehouse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// dropMagic opens a drop record. It differs from segMagic, so a drop
// record never decodes as a segment.
const dropMagic = "RFD1"

// Options configures Open.
type Options struct {
	// Logf receives operational messages (load-skip, seal failures);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot for /metrics.
type Stats struct {
	// Segments and Rows count sealed segments and their total rows.
	Segments int
	Rows     int
	// Bytes is the encoded size of all sealed segments.
	Bytes int64
	// Queries and QuerySeconds count served queries and their cumulative
	// evaluation time.
	Queries      uint64
	QuerySeconds float64
	// QuerySegments counts the segments queries scanned: every segment
	// it may see for a query that scans afresh, only those sealed since
	// its last run for one that resumes.
	QuerySegments uint64
	// IngestErrors counts rows or sweeps the warehouse failed to index;
	// the store remains authoritative, so these are rebuild candidates,
	// not data loss.
	IngestErrors uint64
}

// Warehouse owns the log of sealed segments plus the in-memory builders
// of still-running sweeps. All methods are safe for concurrent use.
type Warehouse struct {
	log  *wal.WAL
	logf func(string, ...any)

	mu       sync.Mutex
	segs     []*Segment // sealed segments in sweep-id order (idLess)
	builders map[string]*Builder
	rows     int
	bytes    int64
	// epoch counts the changes to segs other than an append at its tail.
	// A cached scan that has consumed segs[:n] resumes only within its
	// epoch, while those n segments are unchanged (querycache.go).
	epoch uint64

	cache queryCache

	queries       atomic.Uint64
	queryNanos    atomic.Int64
	querySegments atomic.Uint64
	ingestErrors  atomic.Uint64
}

// Open replays the segment log under dir, creating the directory if
// needed. A record that does not decode is skipped with a log line — the
// server rebuilds its sweep from the store — so one bad record never
// blocks startup. Segment files of the old one-file-per-sweep layout
// (*.seg) are not read; they are counted in one log line and left in
// place.
func Open(dir string, opts Options) (*Warehouse, error) {
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	w := &Warehouse{
		log:      log,
		logf:     opts.Logf,
		builders: map[string]*Builder{},
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	// A listing error only costs the notice: wal.Open has just read dir.
	if entries, err := os.ReadDir(dir); err == nil {
		old := 0
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
				old++
			}
		}
		if old > 0 {
			w.logf("warehouse: ignoring %d segment files of the old one-file-per-sweep layout in %s", old, dir)
		}
	}
	if err := w.load(); err != nil {
		log.Close()
		return nil, err
	}
	return w, nil
}

// load replays the log into memory — the compaction snapshot's segments,
// then every record after it in append order — and compacts the log
// when dead bytes outnumber live ones.
func (w *Warehouse) load() error {
	var total int64 // bytes of every replayed record, live or dead
	apply := func(rec []byte) error {
		total += int64(len(rec))
		seg, drop, err := decodeRecord(rec)
		switch {
		case err != nil:
			return err
		case seg != nil:
			w.put(seg)
		default:
			w.remove(drop)
		}
		return nil
	}
	if snap, _, ok := w.log.Snapshot(); ok {
		for i := 1; len(snap) > 0; i++ {
			if len(snap) < 4 || int(binary.LittleEndian.Uint32(snap)) > len(snap)-4 {
				w.logf("warehouse: skipping a torn snapshot tail of %d bytes", len(snap))
				break
			}
			n := int(binary.LittleEndian.Uint32(snap))
			if err := apply(snap[4 : 4+n]); err != nil {
				w.logf("warehouse: skipping snapshot record %d: %v", i, err)
			}
			snap = snap[4+n:]
		}
	}
	err := w.log.Replay(func(idx uint64, rec []byte) error {
		if err := apply(rec); err != nil {
			w.logf("warehouse: skipping log record %d: %v", idx, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	if total-w.bytes > w.bytes {
		if err := w.compact(); err != nil {
			w.logf("warehouse: compacting the log: %v", err)
		}
	}
	return nil
}

// dropRecord encodes the record that retires sweepID's segment.
func dropRecord(sweepID string) []byte {
	return append([]byte(dropMagic), sweepID...)
}

// decodeRecord parses one log record: a segment, or a drop record
// naming the sweep id whose segment it retires.
func decodeRecord(rec []byte) (seg *Segment, drop string, err error) {
	if id, ok := bytes.CutPrefix(rec, []byte(dropMagic)); ok {
		return nil, string(id), nil
	}
	seg, err = decodeSegment(rec)
	return seg, "", err
}

// compact replaces the log with a snapshot of the live segments, each
// length-prefixed (u32 LE) and in sweep-id order.
func (w *Warehouse) compact() error {
	snap := make([]byte, 0, w.bytes+4*int64(len(w.segs)))
	for _, seg := range w.segs {
		data := seg.encode()
		snap = binary.LittleEndian.AppendUint32(snap, uint32(len(data)))
		snap = append(snap, data...)
	}
	return w.log.Compact(snap)
}

// idLess orders sweep ids: shorter first, then lexicographic, so
// "s1000000" sorts after "s999999" even though the zero-padded width
// overflowed.
func idLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// find returns where sweepID's segment is, or would be, in w.segs, and
// whether it is there. Callers hold w.mu (or have exclusive access
// during Open), as for put and remove.
func (w *Warehouse) find(sweepID string) (int, bool) {
	i := sort.Search(len(w.segs), func(k int) bool { return !idLess(w.segs[k].Sweep, sweepID) })
	return i, i < len(w.segs) && w.segs[i].Sweep == sweepID
}

// put registers a segment, replacing any segment of the same sweep. It
// bumps the epoch unless the segment lands at the tail.
func (w *Warehouse) put(seg *Segment) {
	i, ok := w.find(seg.Sweep)
	if ok {
		w.rows -= w.segs[i].N
		w.bytes -= int64(w.segs[i].size)
		w.segs[i] = seg
	} else {
		w.segs = slices.Insert(w.segs, i, seg)
	}
	if i < len(w.segs)-1 || ok {
		w.epoch++
	}
	w.rows += seg.N
	w.bytes += int64(seg.size)
}

// remove drops a sweep's segment, reporting whether there was one. A
// drop bumps the epoch.
func (w *Warehouse) remove(sweepID string) bool {
	i, ok := w.find(sweepID)
	if ok {
		w.rows -= w.segs[i].N
		w.bytes -= int64(w.segs[i].size)
		w.segs = slices.Delete(w.segs, i, i+1)
		w.epoch++
	}
	return ok
}

// Begin opens a builder for a newly admitted sweep of jobs rows. Any
// sealed segment already carrying this sweep id is dropped, and a drop
// record is logged so a restart does not bring it back: on a
// journal-less server, sweep ids restart from zero, so an id collision
// means the old segment describes a dead identity.
func (w *Warehouse) Begin(sweepID, name, tenant string, jobs int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.remove(sweepID) {
		if _, err := w.log.Append(dropRecord(sweepID)); err != nil {
			w.logf("warehouse: logging the drop of sweep %s: %v", sweepID, err)
		}
	}
	w.builders[sweepID] = NewBuilder(sweepID, name, tenant, jobs)
}

// Add indexes one published row of a running sweep. Rows for unknown
// sweeps (or bad indexes) count as ingest errors and are dropped — the
// store still holds the result, so a rebuild recovers them.
func (w *Warehouse) Add(sweepID string, idx int, j sweep.Job, row sweep.Row) {
	w.mu.Lock()
	b := w.builders[sweepID]
	var err error
	if b != nil {
		err = b.Add(idx, j, row)
	}
	w.mu.Unlock()
	if b == nil {
		w.ingestErrors.Add(1)
		return
	}
	if err != nil {
		w.ingestErrors.Add(1)
		w.logf("warehouse: %v", err)
	}
}

// Seal freezes a finished sweep's builder into a segment, appends it to
// the log and registers it for queries, returning once both are done:
// the segment then survives a crash of the process, and the log's group
// commit makes it durable within one sync window. Sealing a sweep with
// no open builder is a no-op. An incomplete builder is an ingest error:
// the sweep stays unindexed rather than serving partial aggregates.
func (w *Warehouse) Seal(sweepID string) error {
	w.mu.Lock()
	b := w.builders[sweepID]
	delete(w.builders, sweepID)
	w.mu.Unlock()
	if b == nil {
		return nil
	}
	return w.install(b)
}

// install freezes a builder, logs the segment and registers it. The
// append and the registration share w.mu, so the log holds segments in
// the order memory saw them.
func (w *Warehouse) install(b *Builder) error {
	seg, err := b.Segment()
	if err != nil {
		w.ingestErrors.Add(1)
		w.logf("warehouse: %v", err)
		return err
	}
	data := seg.encode()
	seg.size = len(data)
	w.mu.Lock()
	_, err = w.log.Append(data)
	w.put(seg)
	w.mu.Unlock()
	if err != nil {
		// Serve the segment from memory anyway: queries stay correct this
		// process lifetime, and the next restart rebuilds from the store.
		w.ingestErrors.Add(1)
		w.logf("warehouse: persisting sweep %s: %v", seg.Sweep, err)
	}
	return nil
}

// Discard drops a running sweep's builder (cancellation): canceled
// sweeps are incomplete by construction and are never indexed.
func (w *Warehouse) Discard(sweepID string) {
	w.mu.Lock()
	delete(w.builders, sweepID)
	w.mu.Unlock()
}

// Has reports whether a sealed segment exists for the sweep.
func (w *Warehouse) Has(sweepID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.find(sweepID)
	return ok
}

// RebuildSweep reconstructs one finished sweep's segment without having
// observed its rows live: each job's result is fetched from the
// content-addressed store (get), falling back to the journaled row
// (rows[i], present when its Key is set) for results the store has
// evicted. It errors — leaving the sweep unindexed — if any job is
// recoverable from neither.
func (w *Warehouse) RebuildSweep(sweepID, name, tenant string, jobs []sweep.Job,
	rows []sweep.Row, get func(sweep.Key) (sim.Result, bool)) error {
	b := NewBuilder(sweepID, name, tenant, len(jobs))
	for i, j := range jobs {
		k := j.Key()
		var row sweep.Row
		if res, ok := get(k); ok {
			row = sweep.RowOf(j, sweep.Outcome{Result: res, Key: k, Cached: true})
		} else if i < len(rows) && rows[i].Key != "" {
			row = rows[i]
		} else {
			w.ingestErrors.Add(1)
			return fmt.Errorf("warehouse: sweep %s: job %d missing from store and journal", sweepID, i)
		}
		if err := b.Add(i, j, row); err != nil {
			w.ingestErrors.Add(1)
			return err
		}
	}
	return w.install(b)
}

// SegmentFromRows builds an in-memory segment from a sweep's expanded
// jobs and its streamed NDJSON rows — the client-side parity path of
// rfbatch's -query -from mode, which re-aggregates a row stream through
// the exact evaluator the server runs. Rows must be in job order (as
// rfbatch and the rfserved stream emit them), each row keyed by its
// job's content address.
func SegmentFromRows(sweepID, name string, jobs []sweep.Job, rows []sweep.Row) (*Segment, error) {
	if len(rows) != len(jobs) {
		return nil, fmt.Errorf("warehouse: %d rows for %d jobs", len(rows), len(jobs))
	}
	b := NewBuilder(sweepID, name, "", len(jobs))
	for i, j := range jobs {
		if rows[i].Key != string(j.Key()) {
			return nil, fmt.Errorf("warehouse: row %d key %s does not match job key %s (rows not in job order?)",
				i, rows[i].Key, j.Key())
		}
		if err := b.Add(i, j, rows[i]); err != nil {
			return nil, err
		}
	}
	return b.Segment()
}

// Close closes the log. Segments sealed after Close are served from
// memory only and counted as ingest errors.
func (w *Warehouse) Close() error {
	return w.log.Close()
}

// Stats snapshots the warehouse counters.
func (w *Warehouse) Stats() Stats {
	w.mu.Lock()
	st := Stats{Segments: len(w.segs), Rows: w.rows, Bytes: w.bytes}
	w.mu.Unlock()
	st.Queries = w.queries.Load()
	st.QuerySeconds = float64(w.queryNanos.Load()) / 1e9
	st.QuerySegments = w.querySegments.Load()
	st.IngestErrors = w.ingestErrors.Load()
	return st
}
