package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/rf/api"
)

// testSpec is a small two-benchmark, three-architecture sweep (6 jobs).
const testSpec = `{
  "name": "smoke",
  "instructions": 3000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle"},
    {"kind": "rfcache", "caching": ["nonbypass", "ready"]}
  ]
}`

// fakeSim is a fast deterministic stand-in for the simulator.
func fakeSim(j sweep.Job) sim.Result {
	return sim.Result{
		Instructions: j.Config.MaxInstructions,
		Cycles:       j.Config.MaxInstructions/2 + uint64(len(j.Profile.Name)),
		IPC:          2,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Simulate == nil {
		cfg.Simulate = fakeSim
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

// submit POSTs a spec and decodes the acknowledgment.
func submit(t *testing.T, base, spec string) api.SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit returned %d: %s", resp.StatusCode, body)
	}
	var ack api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// streamAll reads the full NDJSON stream of a sweep.
func streamAll(t *testing.T, base, resultsURL string) string {
	t.Helper()
	resp, err := http.Get(base + resultsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// getStatus polls a sweep's status document.
func getStatus(t *testing.T, base, statusURL string) api.SweepStatus {
	t.Helper()
	resp, err := http.Get(base + statusURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// rfbatchNDJSON renders the spec exactly the way `rfbatch -ndjson` does:
// a fresh runner with the same simulate hook, rows in job order.
func rfbatchNDJSON(t *testing.T, spec string, simulate func(sweep.Job) sim.Result) string {
	t.Helper()
	s, err := sweep.ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	r := sweep.NewRunner(sweep.RunnerConfig{Simulate: simulate})
	outs := r.RunOutcomes(jobs, 0)
	var buf bytes.Buffer
	if err := sweep.NewReport(s.Name, jobs, outs, r.CacheStats()).WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStreamMatchesRFBatch is the e2e acceptance contract: the NDJSON
// stream of a submitted sweep is byte-identical to an rfbatch run of the
// same spec.
func TestStreamMatchesRFBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ack := submit(t, ts.URL, testSpec)
	if ack.Jobs != 6 {
		t.Fatalf("spec expanded to %d jobs, want 6", ack.Jobs)
	}
	got := streamAll(t, ts.URL, ack.ResultsURL)
	want := rfbatchNDJSON(t, testSpec, fakeSim)
	if got != want {
		t.Errorf("stream differs from rfbatch output:\n--- rfserved ---\n%s--- rfbatch ---\n%s", got, want)
	}

	st := getStatus(t, ts.URL, ack.StatusURL)
	if st.State != "done" || st.Completed != 6 {
		t.Errorf("status after stream = %+v", st)
	}
	// Streaming a finished sweep replays the identical bytes.
	if again := streamAll(t, ts.URL, ack.ResultsURL); again != got {
		t.Error("replayed stream differs from the live stream")
	}
}

// TestResubmitAllCacheHits is the warm-store contract: a second
// submission of the same spec performs zero simulations.
func TestResubmitAllCacheHits(t *testing.T) {
	var sims atomic.Int64
	counted := func(j sweep.Job) sim.Result {
		sims.Add(1)
		return fakeSim(j)
	}
	_, ts := newTestServer(t, Config{Simulate: counted})

	first := submit(t, ts.URL, testSpec)
	streamAll(t, ts.URL, first.ResultsURL)
	cold := sims.Load()
	if cold == 0 {
		t.Fatal("cold submission simulated nothing")
	}

	second := submit(t, ts.URL, testSpec)
	streamAll(t, ts.URL, second.ResultsURL)
	if sims.Load() != cold {
		t.Errorf("resubmission simulated: %d runs total, want %d", sims.Load(), cold)
	}
	st := getStatus(t, ts.URL, second.StatusURL)
	if st.Cached != st.Total || st.Simulated != 0 {
		t.Errorf("resubmission status = %+v, want 100%% cached", st)
	}
}

// TestStoreSurvivesServerRestart submits against a disk store, tears the
// server down, and verifies a fresh server over the same store serves
// the resubmission entirely from disk.
func TestStoreSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	counted := func(j sweep.Job) sim.Result {
		sims.Add(1)
		return fakeSim(j)
	}

	open := func() (*store.Store, *Server, *httptest.Server) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{
			Simulate: counted,
			Cache:    store.NewTiers(store.TierConfig{Local: st}),
		})
		return st, srv, httptest.NewServer(srv)
	}

	st, srv, ts := open()
	ack := submit(t, ts.URL, testSpec)
	firstRows := streamAll(t, ts.URL, ack.ResultsURL)
	cold := sims.Load()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancel()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, srv2, ts2 := open()
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		st2.Close()
	}()
	ack2 := submit(t, ts2.URL, testSpec)
	warmRows := streamAll(t, ts2.URL, ack2.ResultsURL)
	if sims.Load() != cold {
		t.Errorf("restarted server re-simulated: %d total, want %d", sims.Load(), cold)
	}
	stJSON := getStatus(t, ts2.URL, ack2.StatusURL)
	if stJSON.Cached != stJSON.Total {
		t.Errorf("restarted status = %+v, want 100%% cached", stJSON)
	}
	// Rows match except for cache provenance: flip the cold rows' cached
	// flags that differ. Simpler: compare everything but the cached field.
	strip := func(ndjson string) []sweep.Row {
		var rows []sweep.Row
		dec := json.NewDecoder(strings.NewReader(ndjson))
		for dec.More() {
			var row sweep.Row
			if err := dec.Decode(&row); err != nil {
				t.Fatal(err)
			}
			row.Cached = false
			rows = append(rows, row)
		}
		return rows
	}
	a, b := strip(firstRows), strip(warmRows)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs across restart:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestCancelSweep verifies DELETE stops a running sweep and the stream
// terminates.
func TestCancelSweep(t *testing.T) {
	release := make(chan struct{})
	var once atomic.Bool
	started := make(chan struct{})
	slow := func(j sweep.Job) sim.Result {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		<-release
		return fakeSim(j)
	}

	_, ts := newTestServer(t, Config{Simulate: slow, MaxWorkers: 2})
	// 18 benchmarks × 1 arch: plenty of jobs left when we cancel.
	ack := submit(t, ts.URL, `{"instructions": 1000, "architectures": [{"kind": "1cycle"}]}`)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+ack.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	// Unblock the in-flight simulations; everything not yet started must
	// now be skipped.
	close(release)

	// The stream must terminate without delivering every row.
	stream := streamAll(t, ts.URL, ack.ResultsURL)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStatus(t, ts.URL, ack.StatusURL)
		if st.State == "canceled" {
			if st.Completed >= st.Total {
				t.Errorf("canceled sweep completed all %d jobs", st.Total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached canceled state: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := strings.Count(stream, "\n"); n >= ack.Jobs {
		t.Errorf("canceled stream delivered %d of %d rows", n, ack.Jobs)
	}
	// Every row the cancellation kept must be streamable, even past a
	// gap left by a skipped job.
	final := getStatus(t, ts.URL, ack.StatusURL)
	replay := streamAll(t, ts.URL, ack.ResultsURL)
	if n := strings.Count(replay, "\n"); n != final.Completed {
		t.Errorf("terminal stream delivered %d rows, status says %d completed", n, final.Completed)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed", `{`, http.StatusBadRequest},
		{"no architectures", `{"benchmarks":["compress"]}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmarks":["nope"],"architectures":[{"kind":"1cycle"}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}

	// Oversized expansions are rejected up front.
	_, ts2 := newTestServer(t, Config{MaxJobs: 3})
	resp, err := http.Post(ts2.URL+"/v1/sweeps", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}

	// Unknown sweeps 404.
	for _, url := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/results"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

func TestGlobalWorkerBudget(t *testing.T) {
	var running, peak atomic.Int64
	tracked := func(j sweep.Job) sim.Result {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return fakeSim(j)
	}
	_, ts := newTestServer(t, Config{Simulate: tracked, MaxWorkers: 2})
	// Two concurrent sweeps, each happy to use many workers.
	a := submit(t, ts.URL, `{"instructions":1000,"parallelism":8,"benchmarks":["compress","swim","gcc","perl"],"architectures":[{"kind":"1cycle"}]}`)
	b := submit(t, ts.URL, `{"instructions":1000,"parallelism":8,"benchmarks":["compress","swim","gcc","perl"],"architectures":[{"kind":"2cycle"}]}`)
	streamAll(t, ts.URL, a.ResultsURL)
	streamAll(t, ts.URL, b.ResultsURL)
	if p := peak.Load(); p > 2 {
		t.Errorf("observed %d concurrent simulations, global budget is 2", p)
	}
}

func TestMetricsAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ack := submit(t, ts.URL, testSpec)
	streamAll(t, ts.URL, ack.ResultsURL)
	submit(t, ts.URL, testSpec) // warm resubmit; let it finish via status polls

	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts.URL, "/v1/sweeps/s000002").State != "done" {
		if time.Now().After(deadline) {
			t.Fatal("second sweep never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"rfserved_sweeps_total 2",
		"rfserved_jobs_completed_total 12",
		"rfserved_queue_depth 0",
		"rfserved_cache_hits_total",
		"rfserved_cache_hit_rate",
		"rfserved_instructions_per_second",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	listResp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sweeps []api.SweepStatus `json:"sweeps"`
	}
	err = json.NewDecoder(listResp.Body).Decode(&list)
	listResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 2 || list.Sweeps[0].ID != "s000001" || list.Sweeps[1].ID != "s000002" {
		t.Errorf("list = %+v", list.Sweeps)
	}
}

// TestMetricsMidSweep scrapes /metrics while a sweep's first job is
// blocked in the simulator: the sweep counts as active and all its jobs
// as queued, and both gauges drain to zero once it finishes.
func TestMetricsMidSweep(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var first atomic.Bool
	blocked := func(j sweep.Job) sim.Result {
		if first.CompareAndSwap(false, true) {
			close(started)
		}
		<-release
		return fakeSim(j)
	}
	_, ts := newTestServer(t, Config{Simulate: blocked, MaxWorkers: 1})
	var once atomic.Bool
	unblock := func() {
		if once.CompareAndSwap(false, true) {
			close(release)
		}
	}
	t.Cleanup(unblock) // runs before the server's Shutdown
	ack := submit(t, ts.URL, testSpec)
	<-started

	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{
		"\nrfserved_sweeps_active 1\n",
		fmt.Sprintf("\nrfserved_queue_depth %d\n", ack.Jobs),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("mid-sweep metrics missing %q:\n%s", strings.TrimSpace(want), metrics)
		}
	}

	unblock()
	streamAll(t, ts.URL, ack.ResultsURL)
	deadline := time.Now().Add(5 * time.Second)
	for {
		metrics = getMetrics(t, ts.URL)
		if strings.Contains(metrics, "\nrfserved_sweeps_active 0\n") &&
			strings.Contains(metrics, "\nrfserved_queue_depth 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("active and queued gauges never drained:\n%s", metrics)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShutdownRejectsNewSweeps(t *testing.T) {
	srv := New(Config{Simulate: fakeSim})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit returned %d, want 503", resp.StatusCode)
	}
}

// TestRealSimulatorSmoke runs one tiny sweep through the real simulator
// to pin the full path together (skipped in -short).
func TestRealSimulatorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	spec := `{"instructions": 2000, "benchmarks": ["compress"], "architectures": [{"kind": "1cycle"}]}`
	_, ts := newTestServer(t, Config{Simulate: sweep.Simulate})
	ack := submit(t, ts.URL, spec)
	got := streamAll(t, ts.URL, ack.ResultsURL)
	want := rfbatchNDJSON(t, spec, nil)
	if got != want {
		t.Errorf("real-sim stream differs from rfbatch:\n%s\nvs\n%s", got, want)
	}
	var row sweep.Row
	if err := json.Unmarshal([]byte(strings.TrimSpace(got)), &row); err != nil {
		t.Fatal(err)
	}
	if row.Instructions == 0 || row.IPC <= 0 {
		t.Errorf("real simulation produced empty row: %+v", row)
	}
}
