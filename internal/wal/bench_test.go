package wal_test

import (
	"bytes"
	"testing"

	"repro/internal/wal"
)

// BenchmarkAppend measures one Append of a 333-byte record, the size of
// a serve-warm row record in the server journal, while the group-commit
// goroutine fsyncs the segment at its default 2 ms interval. An append
// that lands while that fsync runs measures whether it waits for the
// disk.
func BenchmarkAppend(b *testing.B) {
	w, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := bytes.Repeat([]byte{'r'}, 333)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := w.Stats(); st.Fsyncs > 0 {
		b.ReportMetric(float64(b.N)/float64(st.Fsyncs), "appends/fsync")
	}
}
