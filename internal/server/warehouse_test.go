// Warehouse integration tests: the /v1/query endpoint must answer
// exactly what a client computes from the NDJSON row stream (the golden
// parity contract behind "zero row streaming"), survive losing its
// directory (rebuild from the content-addressed store), and sit behind
// the same tenant auth and quotas as every other endpoint.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/warehouse"
	"repro/rf/api"
)

// warehouseSpec bounds every port dimension so areas are modeled and
// the pareto op has a non-empty frontier.
const warehouseSpec = `{
  "name": "wh-smoke",
  "instructions": 3000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle", "read_ports": [4, 6], "write_ports": [3]},
    {"kind": "rfcache", "read_ports": [4], "write_ports": [3], "buses": [2],
     "upper_sizes": [16], "caching": ["nonbypass", "ready"]}
  ]
}`

// newWarehouse opens a warehouse on dir and closes it when the test
// ends, after the servers the test started have shut down.
func newWarehouse(t *testing.T, dir string) *warehouse.Warehouse {
	t.Helper()
	wh, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	return wh
}

// queryHTTP posts a query document and returns the raw response; the
// caller owns the body.
func queryHTTP(t *testing.T, base, key, doc string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(api.KeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// queryMerged walks the endpoint's cursor pages exactly the way rfbatch
// does and returns the merged document.
func queryMerged(t *testing.T, base, key string, q *api.Query) *api.QueryResult {
	t.Helper()
	var merged *api.QueryResult
	page := *q
	for {
		body, err := json.Marshal(&page)
		if err != nil {
			t.Fatal(err)
		}
		resp := queryHTTP(t, base, key, string(body))
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("query returned %d: %s", resp.StatusCode, raw)
		}
		var res api.QueryResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			cp := res
			cp.NextCursor = ""
			merged = &cp
		} else {
			merged.Rows = append(merged.Rows, res.Rows...)
			merged.Matched = res.Matched
		}
		if res.NextCursor == "" {
			return merged
		}
		page.Cursor = res.NextCursor
	}
}

// localMerged evaluates the same query over a segment rebuilt from the
// streamed NDJSON rows, walking the same cursor loop.
func localMerged(t *testing.T, seg *warehouse.Segment, q *api.Query) *api.QueryResult {
	t.Helper()
	var merged *api.QueryResult
	page := *q
	for {
		res, err := warehouse.Eval([]*warehouse.Segment{seg}, &page)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			cp := *res
			cp.NextCursor = ""
			merged = &cp
		} else {
			merged.Rows = append(merged.Rows, res.Rows...)
			merged.Matched = res.Matched
		}
		if res.NextCursor == "" {
			return merged
		}
		page.Cursor = res.NextCursor
	}
}

// assertIndexed fails unless the sweep has a sealed segment. A sweep
// seals before its state turns done, so no wait is needed.
func assertIndexed(t *testing.T, wh *warehouse.Warehouse, sweepID string) {
	t.Helper()
	if !wh.Has(sweepID) {
		t.Fatalf("sweep %s is not sealed into the warehouse", sweepID)
	}
}

// TestSweepQueryableWhenStreamEnds pins the seal-before-done order: a
// client that has read a sweep's results stream to its end can query
// the sweep at once, with no wait, in every one of many rounds.
func TestSweepQueryableWhenStreamEnds(t *testing.T) {
	wh := newWarehouse(t, t.TempDir())
	_, ts := newTestServer(t, Config{Warehouse: wh})
	const rounds = 200
	for r := 0; r < rounds; r++ {
		ack := submit(t, ts.URL, warehouseSpec)
		streamAll(t, ts.URL, ack.ResultsURL)
		res := queryMerged(t, ts.URL, "", &api.Query{Op: api.QueryOpRows, Sweep: ack.ID})
		if res.Matched != 8 {
			t.Fatalf("round %d: the query matched %d rows of sweep %s once its stream ended, want 8",
				r, res.Matched, ack.ID)
		}
	}
}

// TestQueryGoldenParity is the acceptance pin for the query API: for
// every op, the server's merged cursor pages are byte-identical to a
// client-side evaluation over the streamed NDJSON rows re-expanded
// against the spec — rfbatch -query's local mode. The server answer is
// trustworthy precisely because this equivalence holds.
func TestQueryGoldenParity(t *testing.T) {
	wh := newWarehouse(t, t.TempDir())
	_, ts := newTestServer(t, Config{Warehouse: wh})
	ack := submit(t, ts.URL, warehouseSpec)
	waitStatus(t, ts.URL, ack.StatusURL, func(_ int, state string) bool { return state == "done" })
	assertIndexed(t, wh, ack.ID)

	// Client side: stream the rows, re-expand the spec, build a segment.
	ndjson := streamAll(t, ts.URL, ack.ResultsURL)
	rows, err := sweep.ReadRows(strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sweep.ParseSpec(strings.NewReader(warehouseSpec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := warehouse.SegmentFromRows(ack.ID, s.Name, jobs, rows)
	if err != nil {
		t.Fatal(err)
	}

	queries := []*api.Query{
		{Op: api.QueryOpRows, Sweep: ack.ID},
		{Op: api.QueryOpRows, Sweep: ack.ID, Limit: 3}, // forces pagination: 8 jobs, 3 pages
		{Op: api.QueryOpSeries, Sweep: ack.ID},
		{Op: api.QueryOpPareto, Sweep: ack.ID},
		{Op: api.QueryOpAggregate, Sweep: ack.ID, GroupBy: []string{"family", "suite"},
			Metrics: []api.QueryMetric{{Op: "mean", Metric: "ipc"}, {Op: "max", Metric: "area"}}},
		{Op: api.QueryOpRows, Sweep: ack.ID, Families: []string{"rfcache"},
			Dims: map[string][]int{"read_ports": {4}}},
	}
	for _, q := range queries {
		remote := queryMerged(t, ts.URL, "", q)
		local := localMerged(t, seg, q)
		rj, _ := json.Marshal(remote)
		lj, _ := json.Marshal(local)
		if !bytes.Equal(rj, lj) {
			t.Errorf("op %s limit %d: server and client disagree:\nserver %s\nclient %s",
				q.Op, q.Limit, rj, lj)
		}
	}

	// GET with the document in the q parameter is the same evaluator.
	doc := `{"op": "series", "sweep": "` + ack.ID + `"}`
	resp, err := http.Get(ts.URL + "/v1/query?q=" + url.QueryEscape(doc))
	if err != nil {
		t.Fatal(err)
	}
	getBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET query returned %d: %s", resp.StatusCode, getBody)
	}
	post := queryHTTP(t, ts.URL, "", doc)
	postBody, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if !bytes.Equal(getBody, postBody) {
		t.Errorf("GET and POST answers differ:\nGET  %s\nPOST %s", getBody, postBody)
	}

	// A malformed document is a 400 with a structured error.
	bad := queryHTTP(t, ts.URL, "", `{"op": "drop"}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query returned %d, want 400", bad.StatusCode)
	}
	bad.Body.Close()

	// /metrics exports the warehouse gauges once a query has run.
	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{
		"rfserved_warehouse_segments 1",
		"rfserved_warehouse_queries_total",
		"rfserved_warehouse_query_seconds_total",
		"rfserved_warehouse_query_segments_total",
		"rfserved_warehouse_ingest_errors_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWarehouseRebuildFromStore pins the "never authoritative"
// invariant: lose warehouse data, restart on the same journal and
// store, and every query answers byte-identically without one job
// re-simulating. Two losses are covered: the whole warehouse directory,
// and the last sealed segment's log record, which is what a machine
// crash inside the log's group-commit window drops.
func TestWarehouseRebuildFromStore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sweeps int
		lose   func(t *testing.T, whDir string)
	}{
		{"directory lost", 1, func(t *testing.T, whDir string) {
			if err := os.RemoveAll(whDir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(whDir, 0o755); err != nil {
				t.Fatal(err)
			}
		}},
		{"last seal lost", 2, cutLastLogRecord},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir := t.TempDir()
			storeDir := t.TempDir()
			whDir := t.TempDir()

			st1, err := store.Open(storeDir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			j1 := openWAL(t, walDir)
			wh1 := newWarehouse(t, whDir)
			srv1 := New(Config{Cache: st1, Simulate: fakeSim, Journal: j1, Warehouse: wh1})
			ts1 := httptest.NewServer(srv1)
			var ids []string
			for range tc.sweeps {
				ack := submit(t, ts1.URL, warehouseSpec)
				waitStatus(t, ts1.URL, ack.StatusURL, func(_ int, state string) bool { return state == "done" })
				assertIndexed(t, wh1, ack.ID)
				ids = append(ids, ack.ID)
			}

			queries := []string{
				`{"op": "rows"}`,
				`{"op": "series"}`,
				`{"op": "pareto"}`,
				`{"op": "aggregate", "group_by": ["arch"], "metrics": [{"op": "mean", "metric": "ipc"}]}`,
			}
			before := make([]string, len(queries))
			for i, doc := range queries {
				resp := queryHTTP(t, ts1.URL, "", doc)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("query %s returned %d: %s", doc, resp.StatusCode, body)
				}
				before[i] = string(body)
			}

			// Shut down cleanly, then lose warehouse data.
			ts1.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv1.Shutdown(ctx)
			cancel()
			j1.Close()
			if err := wh1.Close(); err != nil {
				t.Fatal(err)
			}
			tc.lose(t, whDir)

			var resims atomic.Int64
			st2, err := store.Open(storeDir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			j2 := openWAL(t, walDir)
			wh2 := newWarehouse(t, whDir)
			if last := ids[len(ids)-1]; wh2.Has(last) {
				t.Fatalf("sweep %s survived the loss; nothing is left to rebuild", last)
			}
			for _, id := range ids[:len(ids)-1] {
				assertIndexed(t, wh2, id) // sealed before the lost record
			}
			srv2 := New(Config{Cache: st2, Journal: j2, Warehouse: wh2,
				Simulate: func(j sweep.Job) sim.Result { resims.Add(1); return fakeSim(j) }})
			ts2 := httptest.NewServer(srv2)
			t.Cleanup(func() {
				ts2.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				srv2.Shutdown(ctx)
				j2.Close()
			})
			for _, id := range ids {
				assertIndexed(t, wh2, id)
			}

			for i, doc := range queries {
				resp := queryHTTP(t, ts2.URL, "", doc)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("rebuilt query %s returned %d: %s", doc, resp.StatusCode, body)
				}
				if string(body) != before[i] {
					t.Errorf("query %s differs after rebuild:\nbefore %s\nafter  %s", doc, before[i], body)
				}
			}
			if got := resims.Load(); got != 0 {
				t.Errorf("rebuild re-simulated %d jobs, want 0", got)
			}
		})
	}
}

// cutLastLogRecord truncates the warehouse log's newest segment file
// before its last record, walking the [4B length][4B CRC][payload]
// frames from the start of the file.
func cutLastLogRecord(t *testing.T, whDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(whDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segment in %s (err %v)", whDir, err)
	}
	path := segs[len(segs)-1] // names are fixed-width hex, so this is the newest
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for off := 0; off+8 <= len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
		last = off
	}
	if last < 0 {
		t.Fatalf("%s holds no record", path)
	}
	if err := os.Truncate(path, int64(last)); err != nil {
		t.Fatal(err)
	}
}

// TestObjectPutStoreQuota pins the per-tenant store byte quota: the
// object PUT that crosses the lifetime budget is a 429 over_quota, and
// both the accepted bytes and the rejection surface on /metrics.
func TestObjectPutStoreQuota(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Quota exactly one object body: the first upload lands, the second
	// crosses the lifetime budget.
	oneBody, _ := json.Marshal(api.Object{Key: objKey(0), Result: fakeSim(sweep.Job{})})
	reg, err := tenant.Load(strings.NewReader(`{
	  "tenants": [{"name": "small", "key": "key-small"}]
	}`), tenant.Limits{MaxStoreBytes: int64(len(oneBody))})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Objects: st.Backend(), Tenants: reg})

	put := func(i int) *http.Response {
		obj := api.Object{Key: objKey(i), Result: fakeSim(sweep.Job{})}
		body, _ := json.Marshal(obj)
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/objects/"+objKey(i), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.KeyHeader, "key-small")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := put(0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first put = %d, want 200", resp.StatusCode)
	}
	resp = put(1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota put = %d, want 429", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.ErrCodeOverQuota {
		t.Errorf("over-quota error code = %q, want %q", e.Code, api.ErrCodeOverQuota)
	}

	metrics := getMetrics(t, ts.URL)
	if !strings.Contains(metrics, `rfserved_tenant_store_bytes{tenant="small"}`) {
		t.Error("/metrics missing rfserved_tenant_store_bytes for the tenant")
	}
	if !strings.Contains(metrics, `rfserved_tenant_store_rejected_total{tenant="small"} 1`) {
		t.Error("/metrics missing the store rejection counter")
	}
}

// TestSetTenantsRotation pins SIGHUP-style key rotation: after
// SetTenants swaps the registry, the retired key is refused, the new
// key works, and ownership of live sweeps follows the tenant name, not
// the key.
func TestSetTenantsRotation(t *testing.T) {
	srv, ts := newTestServer(t, Config{Tenants: testRegistry(t)})
	resp := postSpec(t, ts.URL, "key-big", testSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var ack api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus2(t, ts.URL, ack.StatusURL, "key-big")

	rotated, err := tenant.Load(strings.NewReader(`{
	  "tenants": [
	    {"name": "small", "key": "key-small", "max_queued": 3},
	    {"name": "big", "keys": ["key-big-rotated"], "priority": 5}
	  ]
	}`), tenant.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTenants(rotated)

	// The retired key is refused on every authed surface.
	resp = postSpec(t, ts.URL, "key-big", testSpec)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("retired key submit = %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// The surviving key reaches the sweep the retired key created:
	// ownership is by tenant name.
	got := streamKeyed(t, ts.URL, ack.ResultsURL, "key-big-rotated")
	want := rfbatchNDJSON(t, testSpec, fakeSim)
	if got != want {
		t.Errorf("rotated key reads a different stream:\n got %s\nwant %s", got, want)
	}

	// SetTenants(nil) is ignored (a failed reload must not drop
	// admission control): the rotated registry stays live, so the
	// retired key is still refused and the surviving key still works.
	srv.SetTenants(nil)
	resp = postSpec(t, ts.URL, "key-big", testSpec)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("after SetTenants(nil), retired key submit = %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postSpec(t, ts.URL, "key-big-rotated", testSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("after SetTenants(nil), surviving key submit = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// waitStatus2 polls a keyed status endpoint until the sweep is done.
func waitStatus2(t *testing.T, base, statusURL, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequest(http.MethodGet, base+statusURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.KeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st api.SweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished (state=%s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
