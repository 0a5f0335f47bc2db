package warehouse

import (
	"fmt"
	"testing"
)

// queryMixDocs are the query-mix workload's four documents, in its
// rotation order.
var queryMixDocs = []struct{ name, doc string }{
	{"series", `{"op":"series"}`},
	{"aggregate", `{"op":"aggregate","group_by":["family"],"metrics":[{"op":"mean","metric":"ipc"}]}`},
	{"pareto", `{"op":"pareto"}`},
	{"rows", `{"op":"rows","limit":100,"families":["rfcache"]}`},
}

// BenchmarkEval measures one evaluation of each query-mix document over
// the warehouse query-mix builds: 561 sealed copies of the 18×6 grid,
// each decoded from its own encoding as a restarted server loads them.
func BenchmarkEval(b *testing.B) {
	jobs, rows := specJobsRows(b, gridSpecJSON, 0)
	var segs []*Segment
	for i := 1; i <= 561; i++ {
		seg, err := decodeSegment(buildSegment(b, fmt.Sprintf("s%06d", i), "", jobs, rows).encode())
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg)
	}
	for _, d := range queryMixDocs {
		q, err := ParseQuery([]byte(d.doc))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(segs, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeal measures one sweep's ingest: Begin, one Add per row of
// the 18×6 grid, and Seal, which encodes the segment, appends it to the
// log, registers it beside the segments sealed before it and syncs.
func BenchmarkSeal(b *testing.B) {
	jobs, rows := specJobsRows(b, gridSpecJSON, 0)
	w := newWarehouse(b, b.TempDir(), Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("s%06d", i+1)
		w.Begin(id, "wh-grid", "", len(jobs))
		for k := range jobs {
			w.Add(id, k, jobs[k], rows[k])
		}
		if err := w.Seal(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen measures a restart's warehouse load: replaying a log of
// 500 sealed segments of the 18×6 grid, as query-mix's server reopens
// before its first query.
func BenchmarkOpen(b *testing.B) {
	jobs, rows := specJobsRows(b, gridSpecJSON, 0)
	dir := b.TempDir()
	w := newWarehouse(b, dir, Options{})
	for i := 1; i <= 500; i++ {
		sealRows(b, w, fmt.Sprintf("s%06d", i), "", jobs, rows)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st := w.Stats(); st.Segments != 500 {
			b.Fatalf("opened %d segments, want 500", st.Segments)
		}
		w.Close()
	}
}
