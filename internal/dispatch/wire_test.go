package dispatch_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/rf/api"
)

// exchange posts a raw JSON body and returns the response body, checking
// its status.
func exchange(t *testing.T, url, body string, status int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("%s: status %d, want %d: %s", url, resp.StatusCode, status, data)
	}
	return data
}

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

// TestCompactJSONWire pins the shape of the coordinator protocol's
// responses: a registration, a poll that leases jobs and an error are
// each one compact line, json.Marshal of the wire document and a
// newline, and an error is still the one-field {"error": …} document.
func TestCompactJSONWire(t *testing.T) {
	f := newFleet(t, dispatch.Config{LeaseTTL: 2 * time.Second})
	reg := requireCompact[api.RegisterResponse](t, "register",
		exchange(t, f.ts.URL+"/v1/workers/register", `{"capacity": 2}`, http.StatusOK))
	if reg.ID == "" || reg.Capacity != 2 {
		t.Fatalf("register = %+v", reg)
	}
	f.submit(testSpec)

	pollURL := f.ts.URL + "/v1/workers/" + reg.ID + "/poll"
	deadline := time.Now().Add(5 * time.Second)
	for {
		poll := requireCompact[api.PollResponse](t, "poll",
			exchange(t, pollURL, `{"want": 2, "holding": []}`, http.StatusOK))
		if len(poll.Jobs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never offered jobs")
		}
	}

	e := requireCompact[map[string]string](t, "error",
		exchange(t, f.ts.URL+"/v1/workers/nobody/poll", `{"want": 1}`, http.StatusNotFound))
	if len(e) != 1 || !strings.Contains(e["error"], "nobody") {
		t.Errorf("error = %v, want one error field naming the worker", e)
	}
}
