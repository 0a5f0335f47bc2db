package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// gridSpec is the paper's Figure 6 grid: all 18 SPEC95 proxies × the six
// register-file families, 108 jobs.
const gridSpec = `{
  "name": "grid",
  "instructions": 120000,
  "architectures": [
    {"kind": "1cycle"}, {"kind": "2cycle"}, {"kind": "2cycle1b"},
    {"kind": "rfcache"}, {"kind": "onelevel"}, {"kind": "replicated"}
  ]
}`

// recoverSweeps is how many finished grid sweeps BenchmarkServerRecover
// journals: about 33k records, 5.2 MB of log (10 MB as legacy JSON).
const recoverSweeps = 300

// BenchmarkServerRecover measures a journaled restart: wal.Open plus New
// replaying a log of finished 108-row grid sweeps, each record as
// execute journals it with rows simulated by fakeSim. It is the layer
// under the benchmark's server set-up time, and also reports the time
// per journaled record (ns/record). The binary log is what the server
// writes; legacy-json is the same log as older servers wrote it, whose
// replay a restart after the upgrade pays once.
func BenchmarkServerRecover(b *testing.B) {
	spec, err := sweep.ParseSpec(strings.NewReader(gridSpec))
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]sweep.Row, len(jobs))
	for i, j := range jobs {
		rows[i] = sweep.RowOf(j, sweep.Outcome{Result: fakeSim(j), Key: j.Key()})
	}
	for _, enc := range []struct {
		name   string
		encode func(srvRec) ([]byte, error)
	}{
		{"binary", encodeRecord},
		{"legacy-json", func(r srvRec) ([]byte, error) { return json.Marshal(r) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			dir := b.TempDir()
			j, err := wal.Open(dir, wal.Options{SyncInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			appendRec := func(r srvRec) {
				data, err := enc.encode(r)
				if err == nil {
					_, err = j.Append(data)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			now := time.Now()
			records := 0
			for s := 1; s <= recoverSweeps; s++ {
				id := fmt.Sprintf("s%06d", s)
				appendRec(srvRec{Op: "submit", ID: id, Name: "grid", Tenant: tenant.Anonymous,
					Par: 2, Spec: gridSpec, Submitted: &now})
				for i := range rows {
					appendRec(srvRec{Op: "row", ID: id, Index: i, Row: &rows[i]})
				}
				appendRec(srvRec{Op: "end", ID: id, State: string(stateDone), Finished: &now})
				records += len(rows) + 2
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := wal.Open(dir, wal.Options{SyncInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				srv := New(Config{Simulate: fakeSim, Journal: j})
				b.StopTimer()
				if n := len(srv.runs()); n != recoverSweeps {
					b.Fatalf("recovered %d sweeps, want %d", n, recoverSweeps)
				}
				if err := srv.Shutdown(context.Background()); err != nil {
					b.Fatal(err)
				}
				j.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
