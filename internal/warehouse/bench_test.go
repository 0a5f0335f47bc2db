package warehouse

import (
	"fmt"
	"testing"

	"repro/rf/api"
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

// BenchmarkQuery measures the resumed path of Warehouse.Query on the
// warehouse BenchmarkEval scans: each iteration registers one more
// sealed copy of the 18×6 grid at the tail, then asks the four query-mix
// documents again, so each query scans only the new segment. The copy
// shares the first segment's columns and is registered as Seal's last
// step registers one; BenchmarkSeal times the encode and append before
// that step.
func BenchmarkQuery(b *testing.B) {
	jobs, rows := specJobsRows(b, gridSpecJSON, 0)
	w := newWarehouse(b, b.TempDir(), Options{})
	for i := 1; i <= 561; i++ {
		sealRows(b, w, fmt.Sprintf("s%06d", i), "", jobs, rows)
	}
	var qs []*api.Query
	for _, d := range queryMixDocs {
		q, err := ParseQuery([]byte(d.doc))
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, q)
	}
	ask := func() {
		for _, q := range qs {
			if _, err := w.Query(q, "", false); err != nil {
				b.Fatal(err)
			}
		}
	}
	ask() // the first scan of each document reads all 561 segments
	base := w.segs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := *base
		seg.Sweep = fmt.Sprintf("s%06d", 562+i)
		w.mu.Lock()
		w.put(&seg)
		w.mu.Unlock()
		ask()
	}
}

// BenchmarkSeal measures one sweep's ingest: Begin, one Add per row of
// the 18×6 grid, and Seal, which encodes the segment, appends it to the
// log and registers it beside the segments sealed before it. The fsync
// is left to the log's group commit.
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
