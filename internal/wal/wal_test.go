package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// These tests mirror internal/store's crash suite: a journal is damaged
// at precise points — torn tail, flipped bit, empty segment, stale temp
// file, failed write — and reopening must recover exactly the longest
// intact prefix of records, repeatably. A "crashed" WAL is deliberately
// never Closed; a real crash doesn't flush anything.

func mustOpen(t *testing.T, dir string, opts Options) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w
}

// Options aliases wal.Options so the helper signature stays short.
type Options = wal.Options

func payload(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func appendN(t *testing.T, w *wal.WAL, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		idx, err := w.Append(payload(i))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if want := uint64(i + 1); idx != want {
			t.Fatalf("Append(%d) returned index %d, want %d", i, idx, want)
		}
	}
}

func replayAll(t *testing.T, w *wal.WAL) (indexes []uint64, payloads [][]byte) {
	t.Helper()
	err := w.Replay(func(index uint64, p []byte) error {
		indexes = append(indexes, index)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return indexes, payloads
}

// onlySegment returns the path of the single segment file in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	appendN(t, w, 0, 25)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	indexes, payloads := replayAll(t, re)
	if len(payloads) != 25 {
		t.Fatalf("replayed %d records, want 25", len(payloads))
	}
	for i, p := range payloads {
		if indexes[i] != uint64(i+1) {
			t.Errorf("record %d replayed with index %d, want %d", i, indexes[i], i+1)
		}
		if !bytes.Equal(p, payload(i)) {
			t.Errorf("record %d replayed as %q, want %q", i, p, payload(i))
		}
	}
	if st := re.Stats(); st.Replayed != 25 || st.TruncatedBytes != 0 {
		t.Errorf("stats after clean reopen: %+v", st)
	}
	// The chain continues where it left off.
	if idx, err := re.Append(payload(25)); err != nil || idx != 26 {
		t.Fatalf("Append after reopen: index %d err %v, want 26 nil", idx, err)
	}
}

func TestWALRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	// ~19-byte payloads + 8-byte headers against a 64-byte threshold:
	// every couple of appends rotates.
	w := mustOpen(t, dir, Options{SegmentBytes: 64})
	appendN(t, w, 0, 40)
	w.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 10 {
		t.Fatalf("rotation produced %d segments, want many", len(segs))
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	_, payloads := replayAll(t, re)
	if len(payloads) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payload(i))
		}
	}
}

// TestWALCrashConsistency damages a freshly written journal in the ways
// a crash (or disk corruption) can, and asserts recovery keeps exactly
// the longest intact prefix — and that a second reopen recovers the
// same records (truncation is monotone, so recovery is idempotent).
func TestWALCrashConsistency(t *testing.T) {
	const total = 12
	cases := []struct {
		name string
		// damage mutates the journal directory after total records were
		// written and the WAL abandoned; returns how many records must
		// survive.
		damage func(t *testing.T, dir string) int
	}{
		{
			// kill -9 mid-write: the final record's frame is cut short.
			name: "torn tail",
			damage: func(t *testing.T, dir string) int {
				seg := onlySegment(t, dir)
				info, _ := os.Stat(seg)
				if err := os.Truncate(seg, info.Size()-5); err != nil {
					t.Fatal(err)
				}
				return total - 1
			},
		},
		{
			// Tear inside the header, not the payload.
			name: "torn header",
			damage: func(t *testing.T, dir string) int {
				seg := onlySegment(t, dir)
				info, _ := os.Stat(seg)
				recLen := int64(wal.HeaderBytes + len(payload(0)))
				if err := os.Truncate(seg, info.Size()-recLen+3); err != nil {
					t.Fatal(err)
				}
				return total - 1
			},
		},
		{
			// Bit rot in the middle of the file: everything from the
			// flipped record on is untrusted.
			name: "bit flip",
			damage: func(t *testing.T, dir string) int {
				seg := onlySegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				recLen := wal.HeaderBytes + len(payload(0))
				victim := 4 // fifth record, flip a payload byte
				data[victim*recLen+wal.HeaderBytes] ^= 0x40
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return victim
			},
		},
		{
			// A length prefix smashed into an absurd value must not
			// allocate or read past the cap.
			name: "oversized length prefix",
			damage: func(t *testing.T, dir string) int {
				seg := onlySegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				recLen := wal.HeaderBytes + len(payload(0))
				binary.LittleEndian.PutUint32(data[3*recLen:], 0xffffffff)
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return 3
			},
		},
		{
			// A crash right after openSegmentLocked leaves a zero-byte
			// segment; it must not confuse recovery or appends.
			name: "empty segment",
			damage: func(t *testing.T, dir string) int {
				if err := os.WriteFile(filepath.Join(dir, wal.SegName(uint64(total+1))), nil, 0o644); err != nil {
					t.Fatal(err)
				}
				return total
			},
		},
		{
			// A crash mid-snapshot leaves a stale temp file; it must be
			// swept, not parsed.
			name: "stale tmp",
			damage: func(t *testing.T, dir string) int {
				if err := os.WriteFile(filepath.Join(dir, "tmp-123456"), []byte("half a snapshot"), 0o644); err != nil {
					t.Fatal(err)
				}
				return total
			},
		},
		{
			// A deleted early segment breaks the chain: later segments
			// must be dropped rather than replayed out of order.
			name: "gap in chain",
			damage: func(t *testing.T, dir string) int {
				seg := onlySegment(t, dir)
				if err := os.Remove(seg); err != nil {
					t.Fatal(err)
				}
				// Fabricate a later segment the chain cannot reach.
				frame := make([]byte, wal.HeaderBytes+3)
				binary.LittleEndian.PutUint32(frame[0:4], 3)
				binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte("zzz")))
				copy(frame[wal.HeaderBytes:], "zzz")
				if err := os.WriteFile(filepath.Join(dir, wal.SegName(uint64(total+5))), frame, 0o644); err != nil {
					t.Fatal(err)
				}
				return 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, Options{SyncInterval: -1})
			appendN(t, w, 0, total)
			w.Sync()
			// Crash: the WAL is abandoned, never Closed.
			want := tc.damage(t, dir)

			re := mustOpen(t, dir, Options{SyncInterval: -1})
			_, payloads := replayAll(t, re)
			if len(payloads) != want {
				t.Fatalf("recovered %d records, want %d", len(payloads), want)
			}
			for i, p := range payloads {
				if !bytes.Equal(p, payload(i)) {
					t.Fatalf("record %d recovered as %q, want %q", i, p, payload(i))
				}
			}
			if want < total {
				if st := re.Stats(); st.TruncatedBytes == 0 {
					t.Error("records were lost but TruncatedBytes is 0")
				}
			}
			// No temp debris survives recovery.
			if tmp, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmp) != 0 {
				t.Errorf("temp files survived reopen: %v", tmp)
			}
			// The journal must accept appends again, and a second reopen
			// must see the same prefix plus the new record — recovery
			// monotone and idempotent.
			if _, err := re.Append([]byte("after-crash")); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			re.Close()

			re2 := mustOpen(t, dir, Options{SyncInterval: -1})
			defer re2.Close()
			_, payloads2 := replayAll(t, re2)
			if len(payloads2) != want+1 {
				t.Fatalf("second reopen recovered %d records, want %d", len(payloads2), want+1)
			}
			for i := 0; i < want; i++ {
				if !bytes.Equal(payloads2[i], payload(i)) {
					t.Fatalf("second reopen record %d = %q, want %q", i, payloads2[i], payload(i))
				}
			}
			if !bytes.Equal(payloads2[want], []byte("after-crash")) {
				t.Fatalf("post-recovery append lost: %q", payloads2[want])
			}
		})
	}
}

// TestWALFailedWriteTruncatesBack injects a write error (and a short
// write) and asserts the failed append leaves no partial frame behind:
// the next append lands cleanly and recovery sees a gap-free chain.
func TestWALFailedWriteTruncatesBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook func(f *os.File, b []byte) (int, error)
	}{
		{"write error after partial data", func(f *os.File, b []byte) (int, error) {
			f.Write(b[:len(b)/2])
			return len(b) / 2, fmt.Errorf("injected: disk full")
		}},
		{"silent short write", func(f *os.File, b []byte) (int, error) {
			return f.Write(b[:len(b)-3])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, Options{SyncInterval: -1})
			appendN(t, w, 0, 3)

			w.SetWriteHook(tc.hook)
			if _, err := w.Append(payload(3)); err == nil {
				t.Fatal("Append with failing write hook returned nil error")
			}
			if w.Failed() {
				t.Fatal("journal poisoned even though truncate-back succeeded")
			}
			w.SetWriteHook((*os.File).Write)
			// The failed index was not consumed: this lands at index 4.
			if idx, err := w.Append(payload(3)); err != nil || idx != 4 {
				t.Fatalf("Append after recovery: index %d err %v, want 4 nil", idx, err)
			}
			if st := w.Stats(); st.AppendErrors != 1 || st.Appends != 4 {
				t.Errorf("stats: %+v, want 1 append error and 4 appends", st)
			}
			w.Close()

			re := mustOpen(t, dir, Options{})
			defer re.Close()
			_, payloads := replayAll(t, re)
			if len(payloads) != 4 {
				t.Fatalf("recovered %d records, want 4", len(payloads))
			}
			if st := re.Stats(); st.TruncatedBytes != 0 {
				t.Errorf("failed write left torn bytes on disk: %+v", st)
			}
		})
	}
}

// TestWALRotationSyncFailurePoisons fails the barrier fsync of a
// rotation: the Append that triggered it must return the error, and the
// journal must refuse every later Append, since the retired segment's
// records may never reach the disk.
func TestWALRotationSyncFailurePoisons(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64, SyncInterval: -1})
	defer w.Close()
	appendN(t, w, 0, 1)
	w.SetSyncHook(func(*os.File) error { return errors.New("injected: fsync failed") })
	// Three 19-byte frames stay under 64 bytes; the fourth rotates.
	appendN(t, w, 1, 2)
	if _, err := w.Append(payload(3)); err == nil {
		t.Fatal("Append whose rotation fsync failed returned nil error")
	}
	if !w.Failed() {
		t.Fatal("a failed rotation fsync did not poison the journal")
	}
	w.SetSyncHook((*os.File).Sync)
	if _, err := w.Append(payload(4)); err == nil {
		t.Fatal("Append after a failed rotation fsync returned nil error")
	}
	if st := w.Stats(); st.AppendErrors != 2 {
		t.Errorf("stats: %+v, want 2 append errors", st)
	}
}

// TestWALAppendDuringSync pins that fsync runs outside the append lock:
// while a Sync is held inside its fsync, an Append returns and Index
// advances. A failed fsync leaves the journal dirty, the next Sync
// retries it, and Stats.Fsyncs counts only the fsyncs that succeed.
func TestWALAppendDuringSync(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SyncInterval: -1})
	defer w.Close()
	appendN(t, w, 0, 1)

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.SetSyncHook(func(f *os.File) error {
		once.Do(func() { close(entered) })
		<-release
		return f.Sync()
	})
	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	<-entered
	appended := make(chan error, 1)
	go func() {
		_, err := w.Append(payload(1))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("Append during fsync: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Append waited for an fsync in progress")
	}
	if got := w.Index(); got != 2 {
		t.Errorf("Index during fsync = %d, want 2", got)
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := w.Stats(); st.Fsyncs != 1 {
		t.Errorf("after one fsync: %d fsyncs counted, want 1", st.Fsyncs)
	}

	// The append that landed during the fsync is unsynced. A failing
	// fsync poisons the journal: it is not retried, even once fsync
	// works again, and the next Append fails.
	w.SetSyncHook(func(*os.File) error { return errors.New("injected: fsync failed") })
	if err := w.Sync(); err == nil {
		t.Fatal("Sync with a failing fsync returned nil")
	}
	w.SetSyncHook((*os.File).Sync)
	if err := w.Sync(); err == nil {
		t.Fatal("Sync after a failed fsync returned nil")
	}
	if _, err := w.Append(payload(2)); err == nil {
		t.Fatal("Append after a failed fsync returned nil error")
	}
	if st := w.Stats(); st.Fsyncs != 1 || st.SyncErrors != 1 {
		t.Errorf("stats: %d fsyncs / %d sync errors, want 1 / 1", st.Fsyncs, st.SyncErrors)
	}
}

// TestWALSyncLoopFailurePoisons fails the group-commit fsync, whose
// error syncLoop drops: the failure must still poison the journal, be
// counted once, and never be retried.
func TestWALSyncLoopFailurePoisons(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SyncInterval: time.Millisecond})
	var calls atomic.Int32
	w.SetSyncHook(func(*os.File) error {
		calls.Add(1)
		return errors.New("injected: fsync failed")
	})
	appendN(t, w, 0, 1)
	deadline := time.Now().Add(5 * time.Second)
	for !w.Failed() {
		if time.Now().After(deadline) {
			t.Fatal("a failed group-commit fsync did not poison the journal")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := w.Append(payload(1)); err == nil {
		t.Fatal("Append after a failed group-commit fsync returned nil error")
	}
	// Close runs the group commit's final Sync, the last chance to retry:
	// it must not fsync again, and it reports the poisoned journal.
	if err := w.Close(); err == nil {
		t.Fatal("Close of a poisoned journal returned nil error")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fsync attempted %d times, want 1", n)
	}
	if st := w.Stats(); st.SyncErrors != 1 || st.Fsyncs != 0 || st.AppendErrors != 1 {
		t.Errorf("stats: %+v, want 1 sync error, 0 fsyncs, 1 append error", st)
	}
}

// TestWALCloseReportsFinalSyncFailure pins that Close returns the error
// of its final fsync: records appended without a group commit are only
// made durable there, and a failure poisons the journal as any other.
func TestWALCloseReportsFinalSyncFailure(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SyncInterval: -1})
	appendN(t, w, 0, 3)
	injected := errors.New("injected: fsync failed")
	var calls atomic.Int32
	w.SetSyncHook(func(*os.File) error {
		calls.Add(1)
		return injected
	})
	if err := w.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want the final fsync's error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fsync attempted %d times, want 1", n)
	}
	if !w.Failed() {
		t.Error("a failed final fsync did not poison the journal")
	}
	if st := w.Stats(); st.SyncErrors != 1 || st.Fsyncs != 0 {
		t.Errorf("stats: %+v, want 1 sync error, 0 fsyncs", st)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestWALSyncOfRetiredSegment is the one fsync error that is not a
// failure: a rotation closes the segment a Sync is about to fsync. The
// rotation's barrier synced that segment first, so the journal stays
// healthy.
func TestWALSyncOfRetiredSegment(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SegmentBytes: 64, SyncInterval: -1})
	defer w.Close()
	appendN(t, w, 0, 1)

	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	w.SetSyncHook(func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	})
	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	<-entered
	// Three more 19-byte frames pass 64 bytes: the last Append rotates,
	// syncing and closing the segment the Sync above holds.
	appendN(t, w, 1, 3)
	close(release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync of a segment rotation retired: %v", err)
	}
	if w.Failed() {
		t.Fatal("a Sync racing a rotation poisoned the journal")
	}
	appendN(t, w, 4, 1)
	if st := w.Stats(); st.SyncErrors != 0 || st.Fsyncs != 1 {
		t.Errorf("stats: %+v, want 0 sync errors and the rotation's 1 fsync", st)
	}
}

// TestWALCompactWaitsForSync pins that Compact cannot retire the active
// segment while a Sync is inside its fsync. That Sync has already
// cleared the dirty flag, so a Compact running in the window would skip
// its barrier fsync and close the file under the Sync, leaving the
// segment's records never fsynced.
func TestWALCompactWaitsForSync(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SyncInterval: -1})
	defer w.Close()
	appendN(t, w, 0, 3)

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var segSynced bool
	w.SetSyncHook(func(f *os.File) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		err := f.Sync()
		if err == nil && strings.HasPrefix(filepath.Base(f.Name()), "seg-") {
			mu.Lock()
			segSynced = true
			mu.Unlock()
		}
		return err
	})
	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	<-entered
	compacted := make(chan error, 1)
	go func() { compacted <- w.Compact([]byte(`{"n":3}`)) }()
	var cerr error
	early := false
	select {
	case cerr = <-compacted:
		early = true
		t.Error("Compact finished while a Sync was inside its fsync")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync held across a Compact: %v", err)
	}
	if !early {
		cerr = <-compacted
	}
	if cerr != nil {
		t.Fatalf("Compact: %v", cerr)
	}
	mu.Lock()
	defer mu.Unlock()
	if !segSynced {
		t.Error("the segment Compact retired was never fsynced")
	}
}

func TestWALSnapshotCompactAndResume(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	appendN(t, w, 0, 10)
	if err := w.Compact([]byte("state-after-10")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(segs) != 0 {
		t.Fatalf("segments survived compaction: %v", segs)
	}
	appendN(t, w, 10, 5)
	w.Close()

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	snap, idx, ok := re.Snapshot()
	if !ok || idx != 10 || string(snap) != "state-after-10" {
		t.Fatalf("Snapshot() = %q, %d, %v; want state-after-10, 10, true", snap, idx, ok)
	}
	indexes, payloads := replayAll(t, re)
	if len(payloads) != 5 {
		t.Fatalf("replayed %d post-snapshot records, want 5", len(payloads))
	}
	for i, p := range payloads {
		if indexes[i] != uint64(11+i) || !bytes.Equal(p, payload(10+i)) {
			t.Errorf("post-snapshot record %d: index %d payload %q", i, indexes[i], p)
		}
	}
	// The chain keeps its global numbering.
	if nidx, err := re.Append(payload(15)); err != nil || nidx != 16 {
		t.Fatalf("Append after compacted reopen: index %d err %v, want 16 nil", nidx, err)
	}
}

// TestWALReplayReleasesSnapshot pins that the journal holds its
// snapshot payload only until Replay: once Replay returns, Snapshot
// reports none, and a later Compact's payload is not held either.
func TestWALReplayReleasesSnapshot(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SyncInterval: -1})
	appendN(t, w, 0, 3)
	if err := w.Compact([]byte("base")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	w.Close()

	re := mustOpen(t, dir, Options{SyncInterval: -1})
	defer re.Close()
	if snap, _, ok := re.Snapshot(); !ok || string(snap) != "base" {
		t.Fatalf("Snapshot() before Replay = %q, %v; want base, true", snap, ok)
	}
	replayAll(t, re)
	if snap, _, ok := re.Snapshot(); ok {
		t.Fatalf("Snapshot() after Replay = %q, true; want none", snap)
	}
	appendN(t, re, 3, 2)
	if err := re.Compact([]byte("later")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if snap, _, ok := re.Snapshot(); ok {
		t.Fatalf("Snapshot() after Compact = %q, true; want none until the next Open", snap)
	}
}

// TestWALCompactRenameFailure fails the snapshot commit rename and
// asserts nothing was thrown away: the records are all still
// recoverable and the old snapshot (none) is still in force.
func TestWALCompactRenameFailure(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SyncInterval: -1})
	appendN(t, w, 0, 8)
	w.SetRenameHook(func(_, _ string) error { return fmt.Errorf("injected: crashed before commit") })
	if err := w.Compact([]byte("doomed")); err == nil {
		t.Fatal("Compact with failing rename returned nil error")
	}
	// Crash: abandon without Close.

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if _, _, ok := re.Snapshot(); ok {
		t.Fatal("uncommitted snapshot visible after reopen")
	}
	_, payloads := replayAll(t, re)
	if len(payloads) != 8 {
		t.Fatalf("recovered %d records after failed compaction, want 8", len(payloads))
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmp) != 0 {
		t.Errorf("temp files survived reopen: %v", tmp)
	}
}

// TestWALCrashAfterCompact abandons the WAL right after a successful
// compaction: reopen must serve the snapshot with nothing to replay.
func TestWALCrashAfterCompact(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	appendN(t, w, 0, 6)
	if err := w.Compact([]byte("base")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Crash: abandon without Close.

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	snap, idx, ok := re.Snapshot()
	if !ok || idx != 6 || string(snap) != "base" {
		t.Fatalf("Snapshot() = %q, %d, %v; want base, 6, true", snap, idx, ok)
	}
	if indexes, _ := replayAll(t, re); len(indexes) != 0 {
		t.Fatalf("replayed %d records covered by the snapshot, want 0", len(indexes))
	}
	if idx, err := re.Append([]byte("next")); err != nil || idx != 7 {
		t.Fatalf("Append after compacted crash: index %d err %v, want 7 nil", idx, err)
	}
}

func TestWALRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	defer w.Close()
	if _, err := w.Append(make([]byte, wal.MaxRecordBytes+1)); err == nil {
		t.Fatal("Append accepted a record over the size cap")
	}
	if _, err := w.Append([]byte("small")); err != nil {
		t.Fatalf("journal unusable after oversized reject: %v", err)
	}
}

func TestWALEmptyDirAndReplayOrder(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	defer w.Close()
	if _, _, ok := w.Snapshot(); ok {
		t.Error("fresh journal claims a snapshot")
	}
	if indexes, _ := replayAll(t, w); len(indexes) != 0 {
		t.Errorf("fresh journal replayed %d records", len(indexes))
	}
	if w.Index() != 0 {
		t.Errorf("fresh journal Index() = %d, want 0", w.Index())
	}
}

// TestWALReplayAbortsOnError pins that a replay callback error stops
// the walk and surfaces.
func TestWALReplayAbortsOnError(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	appendN(t, w, 0, 5)
	w.Close()

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	n := 0
	err := re.Replay(func(uint64, []byte) error {
		n++
		if n == 3 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Replay error = %v, want boom", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times after aborting error, want 3", n)
	}
}
