package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/rf/api"
)

// requireCompact decodes a response body into a T and asserts the body
// is exactly json.Marshal of that value plus a newline: one compact line
// that carries no field T does not know.
func requireCompact[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v in %q", what, err, body)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("%s body is not json.Marshal(v)+\"\\n\":\n got %q\nwant %q", what, body, want)
	}
	return v
}

// readBody reads and closes a response body, checking its status.
func readBody(t *testing.T, what string, resp *http.Response, status int) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("%s: status %d, want %d: %s", what, resp.StatusCode, status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: content-type %q", what, ct)
	}
	return body
}

// TestCompactJSONWire pins the shape of rfserved's JSON responses: the
// submit ack, a status, the sweep list, a query answer and a typed
// error are each one compact line, json.Marshal of the wire document
// and a newline, with the error's code and retry_after_ms unchanged.
func TestCompactJSONWire(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Tenants:   testRegistry(t),
		Warehouse: newWarehouse(t, t.TempDir()),
	})
	get := func(path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.KeyHeader, "key-big")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	ack := requireCompact[api.SubmitResponse](t, "submit ack",
		readBody(t, "submit", postSpec(t, ts.URL, "key-big", warehouseSpec), http.StatusAccepted))
	if ack.Tenant != "big" || ack.Jobs == 0 {
		t.Fatalf("ack = %+v", ack)
	}
	streamKeyed(t, ts.URL, ack.ResultsURL, "key-big") // ends when the sweep is done

	st := requireCompact[api.SweepStatus](t, "status", readBody(t, "status", get(ack.StatusURL), http.StatusOK))
	if st.State != string(stateDone) || st.Completed != ack.Jobs {
		t.Errorf("status = %+v", st)
	}
	list := requireCompact[api.SweepList](t, "list", readBody(t, "list", get("/v1/sweeps"), http.StatusOK))
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != ack.ID {
		t.Errorf("list = %+v", list)
	}
	for _, doc := range []string{`{"op":"series"}`, `{"op":"rows","limit":3}`} {
		res := requireCompact[api.QueryResult](t, "query "+doc,
			readBody(t, "query", queryHTTP(t, ts.URL, "key-big", doc), http.StatusOK))
		if res.Matched != ack.Jobs {
			t.Errorf("query %s matched %d rows, want %d", doc, res.Matched, ack.Jobs)
		}
	}

	// small's queued-job quota is 3; the spec has more jobs.
	resp := postSpec(t, ts.URL, "key-small", warehouseSpec)
	body := readBody(t, "over-quota submit", resp, http.StatusTooManyRequests)
	e := requireCompact[api.Error](t, "error", body)
	if e.Code != api.ErrCodeOverQuota || e.RetryAfterMS <= 0 || e.Error == "" {
		t.Errorf("error = %+v, want code %q and retry_after_ms > 0", e, api.ErrCodeOverQuota)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != 3 || fields["error"] == nil || fields["code"] == nil || fields["retry_after_ms"] == nil {
		t.Errorf("error body %s, want exactly error, code and retry_after_ms", body)
	}
}
