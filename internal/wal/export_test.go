package wal

import "os"

// SetWriteHook replaces the write step that commits a framed record to
// the active segment, letting crash-consistency tests tear a record
// mid-write. Tests only.
func (w *WAL) SetWriteHook(f func(f *os.File, b []byte) (int, error)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.write = f
}

// SetSyncHook replaces the step that fsyncs the active segment, letting
// tests hold an fsync open or fail it. Tests only.
func (w *WAL) SetSyncHook(f func(f *os.File) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sync = f
}

// SetRenameHook replaces the rename step that commits a finished
// snapshot temp file, letting crash-consistency tests simulate a
// compactor killed mid-commit. Tests only.
func (w *WAL) SetRenameHook(f func(oldpath, newpath string) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rename = f
}

// Failed reports whether a write or fsync error has poisoned the
// journal. Tests only.
func (w *WAL) Failed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// HeaderBytes and MaxRecordBytes export framing constants for tests.
const (
	HeaderBytes    = headerBytes
	MaxRecordBytes = maxRecordBytes
)

// SegName exports the segment naming scheme for tests that fabricate
// journal directories byte by byte.
func SegName(start uint64) string { return segName(start) }
