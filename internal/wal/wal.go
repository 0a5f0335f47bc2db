// Package wal implements the append-only write-ahead journal under the
// rfserved coordinator's crash-resume path (cmd/rfserved -wal-dir): a
// sequence of length-prefixed, CRC32-checksummed records spread over
// rotated segment files, plus an atomically written snapshot that bounds
// replay cost.
//
// Layout under the journal directory:
//
//	snap.json             latest snapshot: {schema, index, data}
//	seg-<first>.wal       records, named by the global index (16-digit
//	                      hex) of the first record the segment holds
//
// Each record is framed as
//
//	[4B length, little endian][4B IEEE CRC32 of payload][payload]
//
// and the payload is opaque to this package (the coordinator and server
// journal small JSON documents). Records carry implicit global indexes:
// the first record ever appended is index 1, and a segment's name pins
// the index of its first record, so the chain is self-describing.
//
// Durability is batched: Append issues the write(2) immediately — a
// record survives a crash of the process as soon as Append returns — and
// a background group-commit goroutine fsyncs the active segment every
// SyncInterval, so a machine crash loses at most one sync window. Sync
// forces an fsync for callers that need a hard barrier. The fsync runs
// outside the append lock, so an Append does not wait for it. Segment
// rotation and Compact still sync under that lock, as barriers; the
// Append that rotates, and any queued behind a barrier, waits for it.
//
// A failed fsync poisons the journal, like a failed write. It is never
// retried: on Linux a retried fsync can succeed after the kernel dropped
// the pages that failed to reach the disk.
//
// Recovery (Open) tolerates torn tails: the record chain is replayed
// until the first frame that is short, oversized, or fails its CRC, the
// damaged segment is truncated at the last good record, and any segment
// that does not continue the chain exactly where it broke is discarded.
// Truncation is therefore monotone — reopening a journal never recovers
// fewer (or different) records than the previous open did, a property
// pinned by FuzzWALReplay. A corrupt or missing snapshot is treated as
// absent; a snapshot that names an index beyond the surviving records
// simply means the covered segments were already deleted.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	headerBytes = 8
	// maxRecordBytes rejects absurd length prefixes during recovery (a
	// torn or bit-flipped header must not trigger a giant allocation).
	maxRecordBytes = 64 << 20
	snapName       = "snap.json"
	segPrefix      = "seg-"
	segSuffix      = ".wal"
)

// errFailed is what a poisoned journal answers every later call with.
var errFailed = errors.New("wal: journal failed on an earlier write or fsync error")

// Options configures a WAL. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold: the active segment is
	// closed and a new one started once it exceeds this size; 0 means
	// 4 MiB.
	SegmentBytes int64
	// SyncInterval is the group-commit window: the active segment is
	// fsynced at most this long after an Append marked it dirty; 0 means
	// 2 ms. Negative disables background fsync entirely (Sync and Close
	// still flush) — for tests and callers that batch their own syncs.
	SyncInterval time.Duration
}

// Stats counts journal activity. Replay-side fields are set by Open;
// append-side fields accumulate over the WAL's lifetime.
type Stats struct {
	// Appends counts records durably handed to the OS; AppendErrors
	// counts Append calls that failed (the journal is failed and
	// read-only once a write error leaves the tail in an unknown state).
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// Fsyncs counts group-commit and explicit syncs whose fsync(2)
	// succeeded; SyncErrors counts those that failed, each of which
	// poisons the journal.
	Fsyncs     uint64 `json:"fsyncs"`
	SyncErrors uint64 `json:"sync_errors"`
	// Replayed is how many records Open recovered (after the snapshot);
	// ReplayDuration is how long recovery took.
	Replayed       uint64        `json:"replayed"`
	ReplayDuration time.Duration `json:"replay_duration"`
	// TruncatedBytes is how much torn or unreachable data recovery cut
	// away; Compactions counts successful Compact calls.
	TruncatedBytes int64  `json:"truncated_bytes"`
	Compactions    uint64 `json:"compactions"`
}

// snapFile is the on-disk schema of snap.json. Data is opaque
// application state (base64 in the JSON encoding).
type snapFile struct {
	Schema int    `json:"schema"`
	Index  uint64 `json:"index"`
	Data   []byte `json:"data"`
}

// WAL is an append-only journal. It is safe for concurrent use; there
// must be at most one WAL open per directory.
type WAL struct {
	dir  string
	opts Options

	// write commits one framed record to the active segment, sync
	// fsyncs it and rename commits a finished snapshot temp file; the
	// crash-consistency tests swap them to cut the journal down
	// mid-operation or to hold an fsync open.
	write  func(f *os.File, b []byte) (int, error)
	sync   func(f *os.File) error
	rename func(oldpath, newpath string) error

	// syncMu serializes Sync calls, whose fsync runs outside mu, and
	// keeps Compact out of that window. Lock order: syncMu, then mu.
	syncMu    sync.Mutex
	mu        sync.Mutex
	f         *os.File // active segment; nil until the next Append opens one
	segBytes  int64    // bytes in the active segment
	liveBytes int64    // bytes across all live segments
	next      uint64   // global index of the next record to append
	snapIndex uint64
	snapData  []byte   // recovered snapshot payload, until Replay drops it
	replay    [][]byte // recovered post-snapshot payloads, until Replay drains them
	dirty     bool     // active segment has unsynced appends
	failed    bool     // a write or fsync error left the tail unknown; journal is read-only
	closed    bool
	stats     Stats

	syncc chan struct{}
	stop  chan struct{}
	done  chan error // the stop-time sync's result
}

// Open loads (or initializes) the journal rooted at dir, recovering the
// record chain and truncating any torn tail. The recovered snapshot and
// records are held for a single Replay call; Append continues the chain.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = 2 * time.Millisecond
	}
	w := &WAL{
		dir:    dir,
		opts:   opts,
		write:  func(f *os.File, b []byte) (int, error) { return f.Write(b) },
		sync:   (*os.File).Sync,
		rename: os.Rename,
		next:   1,
		syncc:  make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan error, 1),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	t0 := time.Now()
	if err := w.load(); err != nil {
		return nil, err
	}
	w.stats.ReplayDuration = time.Since(t0)
	w.stats.Replayed = uint64(len(w.replay))
	go w.syncLoop()
	return w, nil
}

// load recovers the snapshot and the record chain.
func (w *WAL) load() error {
	names, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	type seg struct {
		path  string
		start uint64
		size  int64
	}
	var segs []seg
	for _, de := range names {
		name := de.Name()
		// A crash between CreateTemp and rename (snapshot write) leaves a
		// stale tmp- file; sweep it now.
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(w.dir, name))
			continue
		}
		start, ok := segStart(name)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		segs = append(segs, seg{path: filepath.Join(w.dir, name), start: start, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	// Snapshot: corrupt or missing means absent. (It is written
	// atomically, so a torn snapshot file cannot exist; corruption here
	// is outside interference, and replaying from the records alone is
	// the safest answer we have.)
	if data, err := os.ReadFile(filepath.Join(w.dir, snapName)); err == nil {
		var sf snapFile
		if json.Unmarshal(data, &sf) == nil && sf.Schema == 1 {
			w.snapIndex = sf.Index
			w.snapData = sf.Data
		}
	}

	// Replay the chain. Each segment must begin exactly where the
	// previous one ended; the first torn or corrupt frame ends the chain
	// (truncate-at-first-bad-record), except that a following segment
	// starting at exactly the broken index continues it — that is the
	// signature of a failed append retried into a fresh segment, not of
	// lost records.
	idx := uint64(0) // global index of the last good record
	broken := false
	for _, sg := range segs {
		if idx == 0 {
			// Chain start: the first surviving segment must not leave a
			// gap after the snapshot, or the records beyond the gap are
			// not safe to apply.
			if sg.start > w.snapIndex+1 {
				w.discard(sg.path, sg.size)
				broken = true
				continue
			}
			idx = sg.start - 1
		}
		if broken || sg.start != idx+1 {
			w.discard(sg.path, sg.size)
			broken = true
			continue
		}
		n, good, err := w.scanSegment(sg.path, sg.start)
		if err != nil {
			return err
		}
		idx = sg.start - 1 + uint64(n)
		if good < sg.size {
			// Torn tail: cut the segment back to its last good record. A
			// later segment may still continue the chain at idx+1.
			if err := os.Truncate(sg.path, good); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", sg.path, err)
			}
			w.stats.TruncatedBytes += sg.size - good
			sg.size = good
		}
		w.liveBytes += sg.size
	}
	if idx > 0 {
		w.next = idx + 1
	}
	if w.snapIndex >= w.next {
		// All surviving records are covered by the snapshot (the
		// compaction that wrote it already deleted them).
		w.next = w.snapIndex + 1
	}
	return nil
}

// discard removes a segment that recovery cannot reach (a gap in the
// chain); its bytes count as truncated.
func (w *WAL) discard(path string, size int64) {
	os.Remove(path)
	w.stats.TruncatedBytes += size
}

// scanSegment replays one segment file, buffering payloads with global
// index beyond the snapshot. Each payload is copied out, so the file's
// bytes are garbage once the scan ends and Replay can free the records
// one by one; sub-slices would pin each whole file until its last record
// replayed. It returns the number of good records and the byte offset
// just past the last one.
func (w *WAL) scanSegment(path string, start uint64) (n int, good int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < headerBytes {
			return n, off, nil
		}
		ln := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if ln > maxRecordBytes || int(ln) > len(rest)-headerBytes {
			return n, off, nil
		}
		payload := rest[headerBytes : headerBytes+int(ln)]
		if crc32.ChecksumIEEE(payload) != crc {
			return n, off, nil
		}
		if start+uint64(n) > w.snapIndex {
			w.replay = append(w.replay, append([]byte(nil), payload...))
		}
		n++
		off += headerBytes + int64(ln)
	}
}

// segStart parses a segment filename into the global index of its first
// record.
func segStart(name string) (uint64, bool) {
	base, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	base, ok = strings.CutSuffix(base, segSuffix)
	if !ok || len(base) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(base, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

func segName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix)
}

// Snapshot returns the recovered snapshot payload and the global index
// of the last record it covers; ok is false when no snapshot survived.
// Replay drops the payload, so read it before calling Replay; a
// snapshot Compact commits is not held, and the next Open recovers it.
func (w *WAL) Snapshot() (data []byte, index uint64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snapData == nil {
		return nil, 0, false
	}
	return w.snapData, w.snapIndex, true
}

// Replay calls fn for every recovered post-snapshot record in append
// order, releasing each record once fn has it and the snapshot payload
// up front. A payload is valid only during fn; fn copies what it keeps.
// Replay must be called (at most once) before the first Append; fn's
// error aborts the walk.
func (w *WAL) Replay(fn func(index uint64, payload []byte) error) error {
	w.mu.Lock()
	recs := w.replay
	first := w.next - uint64(len(recs))
	w.replay, w.snapData = nil, nil
	w.mu.Unlock()
	for i, p := range recs {
		recs[i] = nil // p is garbage once fn returns, not once Replay does
		if err := fn(first+uint64(i), p); err != nil {
			return err
		}
	}
	return nil
}

// Append journals one record. The record has reached the OS when Append
// returns (it survives a crash of this process); it is on stable storage
// after the next group-commit fsync. The returned index identifies the
// record in the global chain.
//
// A write error, or any failed fsync, poisons the journal: the tail
// state is unknown, so every subsequent Append fails too (counted in
// Stats.AppendErrors) rather than risk interleaving good records with
// torn ones. Callers degrade to running unjournaled.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return 0, errors.New("wal: closed")
	case w.failed:
		w.stats.AppendErrors++
		return 0, errFailed
	case len(payload) > maxRecordBytes:
		w.stats.AppendErrors++
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d limit", len(payload), maxRecordBytes)
	}
	if w.f == nil {
		if err := w.openSegmentLocked(); err != nil {
			w.stats.AppendErrors++
			return 0, err
		}
	}
	buf := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerBytes:], payload)
	n, err := w.write(w.f, buf)
	if err != nil || n != len(buf) {
		// Try to cut the segment back to its pre-append size; if even
		// that fails the tail is unknown and the journal must stop.
		if terr := w.f.Truncate(w.segBytes); terr != nil {
			w.failed = true
		}
		w.stats.AppendErrors++
		if err == nil {
			err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(buf))
		}
		return 0, err
	}
	idx := w.next
	w.next++
	w.segBytes += int64(len(buf))
	w.liveBytes += int64(len(buf))
	w.dirty = true
	w.stats.Appends++
	select {
	case w.syncc <- struct{}{}:
	default:
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.stats.AppendErrors++
			return 0, err
		}
	}
	return idx, nil
}

// openSegmentLocked starts the segment whose first record will be w.next.
func (w *WAL) openSegmentLocked() error {
	path := filepath.Join(w.dir, segName(w.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.segBytes = 0
	syncDir(w.dir)
	return nil
}

// rotateLocked retires the active segment (synced, so rotation doubles
// as a durability barrier); the next Append opens a fresh one. A failed
// barrier fsync has poisoned the journal: the retired segment's records
// may not be on disk, so nothing may be appended after them.
func (w *WAL) rotateLocked() error {
	err := w.syncLocked()
	w.f.Close()
	w.f = nil
	w.segBytes = 0
	return err
}

// Sync forces an fsync of the active segment. The fsync runs after mu is
// released, so Appends proceed meanwhile; one that lands during it marks
// the segment dirty for the next Sync. A failed fsync poisons the
// journal.
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.failed {
		w.mu.Unlock()
		return errFailed
	}
	f, fsync := w.f, w.sync
	if !w.dirty || f == nil {
		w.mu.Unlock()
		return nil
	}
	w.dirty = false
	w.mu.Unlock()
	err := fsync(f)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		// A rotation that retired and closed f in this window synced it
		// under mu first: the rotating Append dirtied f, and Compact
		// takes syncMu, so it cannot run here.
		if f != w.f && errors.Is(err, os.ErrClosed) {
			return nil
		}
		w.failed = true
		w.stats.SyncErrors++
		return err
	}
	w.stats.Fsyncs++
	return nil
}

// syncLocked is the barrier sync of rotation and Compact, under mu.
func (w *WAL) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.sync(w.f); err != nil {
		w.failed = true
		w.stats.SyncErrors++
		return err
	}
	w.dirty = false
	w.stats.Fsyncs++
	return nil
}

// syncLoop is the group-commit goroutine: it coalesces appends landing
// within SyncInterval of each other into one fsync. It drops the error
// of a group commit's Sync: a failed fsync has poisoned the journal, and
// Append reports it. The final Sync at stop reports to Close.
func (w *WAL) syncLoop() {
	defer func() { w.done <- w.Sync() }()
	for {
		select {
		case <-w.stop:
			return
		case <-w.syncc:
			if w.opts.SyncInterval < 0 {
				continue
			}
			t := time.NewTimer(w.opts.SyncInterval)
			select {
			case <-t.C:
			case <-w.stop:
				t.Stop()
				return
			}
			w.Sync()
		}
	}
}

// Compact makes snapshot the journal's new base state: everything the
// records up to now describe is assumed folded into it. The snapshot is
// written atomically (temp file + rename), and on success every live
// segment is deleted — replay cost resets to the snapshot alone.
// Compact waits for a Sync in progress: that Sync has cleared dirty, so
// the barrier below would otherwise skip its fsync and close the file
// under it.
func (w *WAL) Compact(snapshot []byte) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return errors.New("wal: closed")
	case w.failed:
		return errFailed
	}
	// The snapshot must never describe state from records the disk does
	// not yet hold durably: sync and retire the active segment first.
	if w.f != nil {
		if err := w.syncLocked(); err != nil {
			return err
		}
		w.f.Close()
		w.f = nil
		w.segBytes = 0
	}
	sf := snapFile{Schema: 1, Index: w.next - 1, Data: snapshot}
	data, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp, err := os.CreateTemp(w.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: snapshot write: %w", errors.Join(werr, serr, cerr))
	}
	if err := w.rename(tmp.Name(), filepath.Join(w.dir, snapName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(w.dir)
	w.snapIndex = sf.Index
	w.stats.Compactions++
	// Every live segment is now covered by the snapshot. A crash between
	// the rename above and these deletes is safe: recovery skips records
	// at or below the snapshot index.
	names, _ := os.ReadDir(w.dir)
	for _, de := range names {
		if _, ok := segStart(de.Name()); ok {
			os.Remove(filepath.Join(w.dir, de.Name()))
		}
	}
	w.liveBytes = 0
	return nil
}

// SizeBytes returns the bytes of record data live in the journal —
// what a restart would have to replay (the snapshot not included).
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveBytes
}

// Index returns the global index of the last appended (or recovered)
// record; 0 means the journal is empty.
func (w *WAL) Index() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next - 1
}

// Stats returns activity counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close flushes and closes the journal, returning the final fsync's
// error (a poisoned journal's error) and the active segment's close
// error. The WAL must not be used after Close.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	err := <-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		err = errors.Join(err, w.f.Close())
		w.f = nil
	}
	return err
}

// syncDir fsyncs a directory so a freshly created or renamed entry
// survives a machine crash. Best effort: some filesystems reject
// directory fsync, and losing it only re-runs recovery work.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
