package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/rf/api"
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

// queryMixDocs are the query-mix workload's four /v1/query documents,
// in its rotation order.
var queryMixDocs = []struct{ name, doc string }{
	{"series", `{"op":"series"}`},
	{"aggregate", `{"op":"aggregate","group_by":["family"],"metrics":[{"op":"mean","metric":"ipc"}]}`},
	{"pareto", `{"op":"pareto"}`},
	{"rows", `{"op":"rows","limit":100,"families":["rfcache"]}`},
}

// BenchmarkQueryResponse measures the HTTP layer of a warehouse query:
// each query-mix document is served through the real handler over 561
// sealed copies of the 18×6 grid, the size of that workload's
// warehouse, and its answer is decoded the way rf/client decodes it.
// The warehouse's scan is resumed after the first ask, as it is for the
// workload's repeats, so an iteration is mostly the response's encode
// and decode. It also reports the body size (B/body) and the decode
// alone (decode-ns/op).
func BenchmarkQueryResponse(b *testing.B) {
	spec, err := sweep.ParseSpec(strings.NewReader(gridSpec))
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	// Full-precision rates, as simulated rows carry them.
	rows := make([]sweep.Row, len(jobs))
	for i, j := range jobs {
		n := j.Config.MaxInstructions
		res := sim.Result{
			Instructions: n, Cycles: n/2 + uint64(i*7919%50021),
			Branches: n / 7, Mispredicts: uint64(i * 131 % 997),
			ICacheMissRate: float64(i%13) / 977, DCacheMissRate: float64(i%17) / 313,
		}
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
		rows[i] = sweep.RowOf(j, sweep.Outcome{Result: res, Key: j.Key()})
	}
	wh, err := warehouse.Open(b.TempDir(), warehouse.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer wh.Close()
	for s := 1; s <= 561; s++ {
		id := fmt.Sprintf("s%06d", s)
		wh.Begin(id, "grid", tenant.Anonymous, len(jobs))
		for i, j := range jobs {
			wh.Add(id, i, j, rows[i])
		}
		if err := wh.Seal(id); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(Config{Simulate: fakeSim, Warehouse: wh})
	defer srv.Shutdown(context.Background())

	for _, d := range queryMixDocs {
		ask := func() (size int, decode time.Duration) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(d.doc)))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", d.name, rec.Code, rec.Body)
			}
			size = rec.Body.Len()
			start := time.Now()
			var res api.QueryResult
			if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
				b.Fatal(err)
			}
			return size, time.Since(start)
		}
		size, _ := ask() // the first scan reads all 561 segments
		b.Run(d.name, func(b *testing.B) {
			var decode time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, dt := ask()
				decode += dt
			}
			b.ReportMetric(float64(size), "B/body")
			b.ReportMetric(float64(decode.Nanoseconds())/float64(b.N), "decode-ns/op")
		})
	}
}
