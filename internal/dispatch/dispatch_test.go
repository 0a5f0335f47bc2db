// Tests here drive the full coordinator/worker loop in-process: a real
// server.Server in coordinator mode behind httptest, real RunWorker
// clients pulling over HTTP, and a fake simulate hook on both sides. The
// chaos cases (worker killed mid-sweep, workers that lease jobs and
// vanish repeatedly) run in the short tier, so CI's -race job covers the
// whole dispatch path on every PR.
package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

// testSpec expands to 6 unique jobs (2 benchmarks × 3 architectures).
const testSpec = `{
  "name": "fleet-smoke",
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

// fleet is one coordinator-mode server plus its worker contexts.
type fleet struct {
	t     *testing.T
	coord *dispatch.Coordinator
	srv   *server.Server
	ts    *httptest.Server

	mu      sync.Mutex
	cancels []context.CancelFunc
	done    []chan error
}

// newFleet starts a coordinator-mode server. Leases are short so chaos
// tests converge quickly; the fallback is fakeSim so local completion
// stays byte-compatible with worker results.
func newFleet(t *testing.T, dcfg dispatch.Config) *fleet {
	t.Helper()
	if dcfg.LeaseTTL == 0 {
		dcfg.LeaseTTL = 200 * time.Millisecond
	}
	if dcfg.Fallback == nil {
		dcfg.Fallback = fakeSim
	}
	coord := dispatch.NewCoordinator(dcfg)
	srv := server.New(server.Config{Dispatcher: coord})
	ts := httptest.NewServer(srv)
	f := &fleet{t: t, coord: coord, srv: srv, ts: ts}
	t.Cleanup(f.shutdown)
	return f
}

// shutdown stops workers first (so no poll is in flight), then the
// scheduler and dispatcher, then the HTTP listener.
func (f *fleet) shutdown() {
	f.mu.Lock()
	cancels, done := f.cancels, f.done
	f.cancels, f.done = nil, nil
	f.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	for _, ch := range done {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			f.t.Error("worker did not stop")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		f.t.Errorf("server shutdown: %v", err)
	}
	f.ts.Close()
}

// startWorker joins one worker to the fleet and returns a kill switch.
func (f *fleet) startWorker(name string, capacity int, simulate func(sweep.Job) sim.Result) context.CancelFunc {
	f.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	f.mu.Lock()
	f.cancels = append(f.cancels, cancel)
	f.done = append(f.done, done)
	f.mu.Unlock()
	go func() {
		done <- dispatch.RunWorker(ctx, dispatch.WorkerConfig{
			Coordinator: f.ts.URL,
			Name:        name,
			Capacity:    capacity,
			Simulate:    simulate,
		})
	}()
	return cancel
}

type submitResponse struct {
	ID         string `json:"id"`
	Jobs       int    `json:"jobs"`
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
}

func (f *fleet) submit(spec string) submitResponse {
	f.t.Helper()
	resp, err := http.Post(f.ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		f.t.Fatalf("submit returned %d: %s", resp.StatusCode, body)
	}
	var ack submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		f.t.Fatal(err)
	}
	return ack
}

func (f *fleet) streamAll(resultsURL string) string {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + resultsURL)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	return string(data)
}

type statusJSON struct {
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Cached    int    `json:"cached"`
	Simulated int    `json:"simulated"`
}

func (f *fleet) status(statusURL string) statusJSON {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + statusURL)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		f.t.Fatal(err)
	}
	return st
}

// singleNodeNDJSON renders the spec the way a single-node run does: a
// fresh local runner with the same simulate hook, rows in job order.
func singleNodeNDJSON(t *testing.T, spec string, simulate func(sweep.Job) sim.Result) string {
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

// requireReleased fails unless the coordinator's per-task maps are empty:
// once every sweep has streamed to the end, no task, key or lease may
// outlive it.
func requireReleased(t *testing.T, c *dispatch.Coordinator) {
	t.Helper()
	if tasks, byKey, inflight := c.LiveEntries(); tasks+byKey+inflight != 0 {
		t.Errorf("after every sweep finished: %d tasks, %d keys, %d leases left, want none", tasks, byKey, inflight)
	}
}

// TestCoordinatorMapsReleaseAfterChurn runs many distinct sweeps, some
// submitted twice at once so duplicates share a task, through two
// workers: the coordinator's maps must return to empty.
func TestCoordinatorMapsReleaseAfterChurn(t *testing.T) {
	f := newFleet(t, dispatch.Config{})
	f.startWorker("a", 3, fakeSim)
	f.startWorker("b", 2, fakeSim)
	var acks []submitResponse
	for n := 0; n < 12; n++ {
		spec := strings.Replace(testSpec, `"instructions": 3000`, fmt.Sprintf(`"instructions": %d`, 3000+n), 1)
		acks = append(acks, f.submit(spec))
		if n%3 == 0 {
			acks = append(acks, f.submit(spec))
		}
	}
	for _, ack := range acks {
		if got := strings.Count(f.streamAll(ack.ResultsURL), "\n"); got != 6 {
			t.Errorf("sweep %s streamed %d rows, want 6", ack.ID, got)
		}
	}
	requireReleased(t, f.coord)
}

// TestFleetStreamMatchesSingleNode is the distributed acceptance
// contract: a sweep executed by remote workers streams byte-identical
// NDJSON to a single-node run, and resubmitting it costs zero
// simulations anywhere in the fleet.
func TestFleetStreamMatchesSingleNode(t *testing.T) {
	var sims atomic.Int64
	counted := func(j sweep.Job) sim.Result {
		sims.Add(1)
		return fakeSim(j)
	}
	f := newFleet(t, dispatch.Config{})
	f.startWorker("a", 2, counted)
	f.startWorker("b", 2, counted)

	ack := f.submit(testSpec)
	got := f.streamAll(ack.ResultsURL)
	want := singleNodeNDJSON(t, testSpec, fakeSim)
	if got != want {
		t.Errorf("fleet stream differs from single-node output:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	if n := sims.Load(); n != 6 {
		t.Errorf("fleet simulated %d jobs, want 6", n)
	}
	st := f.coord.Stats()
	if st.Completed != 6 || st.Fallbacks != 0 {
		t.Errorf("coordinator stats = %+v, want 6 remote completions and no fallbacks", st)
	}

	// Warm resubmit: the coordinator's cache answers before the fleet is
	// consulted.
	again := f.submit(testSpec)
	f.streamAll(again.ResultsURL)
	if n := sims.Load(); n != 6 {
		t.Errorf("resubmission reached the fleet: %d total simulations, want 6", n)
	}
	if st := f.status(again.StatusURL); st.Cached != st.Total || st.Simulated != 0 {
		t.Errorf("resubmission status = %+v, want 100%% cached", st)
	}
}

// TestCoordinatorWorkerFailover is the chaos contract: a worker killed
// while holding leased jobs must not stall or corrupt the sweep — its
// lease expires, the jobs are requeued to the surviving worker, and the
// stream still completes byte-identical to a single-node run.
func TestCoordinatorWorkerFailover(t *testing.T) {
	f := newFleet(t, dispatch.Config{LeaseTTL: 150 * time.Millisecond})

	// Worker A leases up to 3 jobs and blocks inside every simulation;
	// it is killed once the first job provably started.
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	stuck := func(j sweep.Job) sim.Result {
		started <- struct{}{}
		<-gate
		return fakeSim(j)
	}
	defer close(gate) // release A's goroutines at test end
	killA := f.startWorker("doomed", 3, stuck)

	ack := f.submit(testSpec)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker A never started a job")
	}
	killA()

	// The survivor joins only after A is dead, so every one of A's
	// leases must travel through expiry+requeue to get to it.
	f.startWorker("survivor", 2, fakeSim)

	got := f.streamAll(ack.ResultsURL)
	want := singleNodeNDJSON(t, testSpec, fakeSim)
	if got != want {
		t.Errorf("post-failover stream differs from single-node output:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	if st := f.status(ack.StatusURL); st.State != "done" || st.Completed != 6 {
		t.Errorf("post-failover status = %+v", st)
	}
	st := f.coord.Stats()
	if st.Requeued == 0 && st.Fallbacks == 0 {
		t.Errorf("failover left no trace in stats: %+v", st)
	}
	if st.Expired == 0 {
		t.Errorf("killed worker was never expired: %+v", st)
	}
	requireReleased(t, f.coord)
}

// TestJobTimeoutRequeuesWedgedWorker pins the -job-timeout defense: a
// worker whose simulations hang while its poll loop keeps heartbeating
// never misses a lease, so only the per-job deadline can recover its
// tasks. The sweep must complete byte-identical through the healthy
// worker.
func TestJobTimeoutRequeuesWedgedWorker(t *testing.T) {
	f := newFleet(t, dispatch.Config{
		LeaseTTL:   time.Second,
		JobTimeout: 100 * time.Millisecond,
	})

	// The wedge: simulations park forever, but RunWorker's loop (a
	// separate goroutine) keeps polling and renewing the lease.
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 8)
	wedged := func(j sweep.Job) sim.Result {
		started <- struct{}{}
		<-gate
		return fakeSim(j)
	}
	f.startWorker("wedged", 2, wedged)

	ack := f.submit(testSpec)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("wedged worker never leased a job")
	}
	f.startWorker("healthy", 2, fakeSim)

	got := f.streamAll(ack.ResultsURL)
	want := singleNodeNDJSON(t, testSpec, fakeSim)
	if got != want {
		t.Errorf("stream differs after job-timeout recovery:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	st := f.coord.Stats()
	if st.Requeued == 0 {
		t.Errorf("wedged leases never timed out: %+v", st)
	}
	if st.Expired != 0 {
		t.Errorf("heartbeating worker was expired (timeout should requeue, not expire): %+v", st)
	}
}

// TestRetryCapFallsBackLocally starves the fleet: every worker leases
// jobs and vanishes without reporting. After MaxAttempts such leases a
// job must be simulated locally by the coordinator, so the sweep still
// completes.
func TestRetryCapFallsBackLocally(t *testing.T) {
	f := newFleet(t, dispatch.Config{
		LeaseTTL:    100 * time.Millisecond,
		MaxAttempts: 2,
	})

	// A "black hole" worker: leases jobs, never finishes one, and stops
	// polling after its first grab so its lease expires. Its simulations
	// stay parked until test cleanup — after its context is dead — so it
	// can never report a result.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	spawnBlackHole := func() {
		grabbed := make(chan struct{}, 64)
		kill := f.startWorker("blackhole", 8, func(j sweep.Job) sim.Result {
			grabbed <- struct{}{}
			<-release
			return sim.Result{}
		})
		go func() {
			select {
			case <-grabbed:
			case <-time.After(5 * time.Second):
			}
			kill()
		}()
	}
	spawnBlackHole()
	spawnBlackHole()

	spec := `{"instructions": 1000, "benchmarks": ["compress"], "architectures": [{"kind": "1cycle"}]}`
	ack := f.submit(spec)
	got := f.streamAll(ack.ResultsURL)
	want := singleNodeNDJSON(t, spec, fakeSim)
	if got != want {
		t.Errorf("fallback stream differs from single-node output:\ngot:  %swant: %s", got, want)
	}
	if st := f.coord.Stats(); st.Fallbacks == 0 {
		t.Errorf("sweep completed without local fallbacks: %+v", st)
	}
	requireReleased(t, f.coord)
}

// TestNoWorkersFallsBackLocally pins the empty-fleet liveness guarantee:
// a sweep submitted to a coordinator that no worker ever joins must
// still complete (the janitor drains the queue into local fallback after
// a workerless lease TTL), byte-identical to a single-node run.
func TestNoWorkersFallsBackLocally(t *testing.T) {
	f := newFleet(t, dispatch.Config{LeaseTTL: 100 * time.Millisecond})
	spec := `{"instructions": 1000, "benchmarks": ["compress", "swim"], "architectures": [{"kind": "1cycle"}]}`
	ack := f.submit(spec)
	got := f.streamAll(ack.ResultsURL)
	want := singleNodeNDJSON(t, spec, fakeSim)
	if got != want {
		t.Errorf("workerless stream differs from single-node output:\ngot:  %swant: %s", got, want)
	}
	st := f.coord.Stats()
	if st.Fallbacks == 0 || st.Completed != 0 {
		t.Errorf("workerless sweep stats = %+v, want only local fallbacks", st)
	}
}

// TestCapacityClampIsHonored registers a greedy worker against a
// coordinator that grants less; the worker must budget against the
// granted capacity, never exceeding it in flight.
func TestCapacityClampIsHonored(t *testing.T) {
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
	f := newFleet(t, dispatch.Config{MaxCapacity: 1})
	f.startWorker("greedy", 8, tracked)

	ack := f.submit(testSpec)
	f.streamAll(ack.ResultsURL)
	if p := peak.Load(); p > 1 {
		t.Errorf("worker ran %d simulations concurrently; coordinator granted capacity 1", p)
	}
}

// TestWorkersEndpoint pins the fleet listing and its counters.
func TestWorkersEndpoint(t *testing.T) {
	f := newFleet(t, dispatch.Config{})
	f.startWorker("alpha", 2, fakeSim)

	// Registration is asynchronous; wait for the listing to show it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(f.ts.URL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Workers []struct {
				ID       string `json:"id"`
				Name     string `json:"name"`
				Capacity int    `json:"capacity"`
			} `json:"workers"`
			Stats dispatch.Stats `json:"stats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Workers) == 1 {
			if w := out.Workers[0]; w.Name != "alpha" || w.Capacity != 2 || !strings.HasPrefix(w.ID, "w") {
				t.Errorf("worker listing = %+v", w)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never appeared in /v1/workers")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dispatch gauges appear on /metrics in coordinator mode.
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"rfserved_dispatch_workers 1", "rfserved_dispatch_tasks_pending"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// wireAssignment mirrors the poll-response job entry of the HTTP
// protocol for raw-protocol tests.
type wireAssignment struct {
	Task uint64    `json:"task"`
	Key  string    `json:"key"`
	Job  sweep.Job `json:"job"`
}

// postJSON exchanges one raw JSON request against the coordinator.
func postJSON(t *testing.T, url string, body any, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s returned %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestLostPollResponseLeasesReconciled drives the protocol raw to pin
// the ghost-lease defense: a worker that never received a poll response
// keeps polling (renewing its lease), so the coordinator must detect the
// orphaned assignments from the holding inventory and requeue them.
func TestLostPollResponseLeasesReconciled(t *testing.T) {
	// Expiry cannot rescue these ghosts no matter the TTL — the worker
	// keeps polling, which renews the lease; only reconciliation can.
	// The short TTL just keeps the long-poll holds (TTL/4) test-sized.
	f := newFleet(t, dispatch.Config{LeaseTTL: 400 * time.Millisecond})
	ack := f.submit(testSpec)

	var reg struct {
		ID string `json:"id"`
	}
	postJSON(t, f.ts.URL+"/v1/workers/register", map[string]any{"capacity": 6}, &reg)
	pollURL := f.ts.URL + "/v1/workers/" + reg.ID + "/poll"

	// Lease two jobs and pretend the response was lost on the wire.
	var lost struct {
		Jobs []wireAssignment `json:"jobs"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(lost.Jobs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never offered jobs")
		}
		postJSON(t, pollURL, map[string]any{"want": 2, "holding": []uint64{}}, &lost)
	}

	// The next poll truthfully reports holding nothing; the coordinator
	// must requeue the ghosts instead of leaving them assigned forever.
	var again struct {
		Jobs []wireAssignment `json:"jobs"`
	}
	postJSON(t, pollURL, map[string]any{"want": 0, "holding": []uint64{}}, &again)
	if st := f.coord.Stats(); st.Requeued < uint64(len(lost.Jobs)) {
		t.Fatalf("ghost leases not requeued: lost %d, stats %+v", len(lost.Jobs), st)
	}

	// The honest worker now executes everything it is offered; the sweep
	// must complete byte-identical despite the earlier lost response.
	held := []uint64{}
	results := []map[string]any{}
	for {
		var resp struct {
			Jobs []wireAssignment `json:"jobs"`
		}
		postJSON(t, pollURL, map[string]any{
			"want": 6, "holding": held, "results": results,
		}, &resp)
		held, results = nil, nil
		if len(resp.Jobs) == 0 {
			st := f.status(ack.StatusURL)
			if st.State == "done" {
				break
			}
			continue
		}
		for _, a := range resp.Jobs {
			results = append(results, map[string]any{
				"task": a.Task, "key": a.Key, "result": fakeSim(a.Job),
			})
			held = append(held, a.Task)
		}
	}
	got := f.streamAll(ack.ResultsURL)
	want := singleNodeNDJSON(t, testSpec, fakeSim)
	if got != want {
		t.Errorf("stream differs after a lost poll response:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	if st := f.coord.Stats(); st.Fallbacks != 0 {
		t.Errorf("recovery leaked into local fallback: %+v", st)
	}
}

// TestTrailingSlashCoordinatorURL pins URL normalization: a -join URL
// with a trailing slash must still register (ServeMux would otherwise
// 301 the POST into a GET and the worker would retry a 405 forever).
func TestTrailingSlashCoordinatorURL(t *testing.T) {
	f := newFleet(t, dispatch.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	f.mu.Lock()
	f.cancels = append(f.cancels, cancel)
	f.done = append(f.done, done)
	f.mu.Unlock()
	go func() {
		done <- dispatch.RunWorker(ctx, dispatch.WorkerConfig{
			Coordinator: f.ts.URL + "/", Capacity: 2, Simulate: fakeSim,
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for f.coord.Stats().Workers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker with trailing-slash URL never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	spec := `{"instructions":1000,"benchmarks":["compress"],"architectures":[{"kind":"1cycle"}]}`
	ack := f.submit(spec)
	f.streamAll(ack.ResultsURL)
	if st := f.coord.Stats(); st.Completed == 0 {
		t.Errorf("job did not run through the slash-joined worker: %+v", st)
	}
}

// TestPollUnknownWorker pins the re-registration contract: polling with
// a stale id must 404 so the worker knows to re-register.
func TestPollUnknownWorker(t *testing.T) {
	f := newFleet(t, dispatch.Config{})
	resp, err := http.Post(f.ts.URL+"/v1/workers/w999999/poll", "application/json",
		strings.NewReader(`{"want": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stale poll returned %d, want 404", resp.StatusCode)
	}
}

// TestDuplicateJobsShareOneTask submits the same spec through two
// concurrent sweeps; the fleet must simulate each unique configuration
// exactly once even though neither sweep hits the cache when it starts.
func TestDuplicateJobsShareOneTask(t *testing.T) {
	var sims atomic.Int64
	block := make(chan struct{})
	slow := func(j sweep.Job) sim.Result {
		sims.Add(1)
		<-block
		return fakeSim(j)
	}
	f := newFleet(t, dispatch.Config{LeaseTTL: time.Second})
	f.startWorker("slow", 8, slow)

	a := f.submit(testSpec)
	b := f.submit(testSpec)
	// Both sweeps must be parked against the dispatcher before any job
	// can finish. Each sweep's cache scan records 6 misses and precedes
	// its Simulate calls, so 12 misses means both are enqueuing; the
	// grace sleep covers the last goroutine spawns.
	deadline := time.Now().Add(5 * time.Second)
	for f.srv.CacheStats().Misses < 12 {
		if time.Now().After(deadline) {
			t.Fatal("second sweep never scanned its jobs")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(block)
	gotA := f.streamAll(a.ResultsURL)
	gotB := f.streamAll(b.ResultsURL)
	if gotA != gotB {
		t.Error("concurrent identical sweeps streamed different bytes")
	}
	if n := sims.Load(); n != 6 {
		t.Errorf("fleet simulated %d jobs for two identical 6-job sweeps, want 6", n)
	}
}

// TestCloseUnblocksSimulate pins shutdown liveness: Close must resolve
// every parked Simulate call through the local fallback.
func TestCloseUnblocksSimulate(t *testing.T) {
	coord := dispatch.NewCoordinator(dispatch.Config{Fallback: fakeSim})
	jobs := specJobs(t, testSpec)

	var wg sync.WaitGroup
	results := make([]sim.Result, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = coord.Simulate(jobs[i])
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the calls park (no workers exist)
	coord.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left Simulate callers blocked")
	}
	for i := range results {
		if want := fakeSim(jobs[i]); results[i].Cycles != want.Cycles || results[i].Instructions != want.Instructions {
			t.Errorf("job %d: fallback result = %+v, want %+v", i, results[i], want)
		}
	}
	// After Close, Simulate degrades to direct local execution.
	if got, want := coord.Simulate(jobs[3]), fakeSim(jobs[3]); got.Cycles != want.Cycles {
		t.Errorf("post-Close Simulate = %+v, want %+v", got, want)
	}
}

func specJobs(t *testing.T, spec string) []sweep.Job {
	t.Helper()
	s, err := sweep.ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestPriorityOrdering: with a single-slot worker draining the queue
// serially, queued tasks are assigned strictly by tenant priority tier
// (higher first), regardless of enqueue order.
func TestPriorityOrdering(t *testing.T) {
	f := newFleet(t, dispatch.Config{})

	// Nine unique jobs (distinct instruction budgets → distinct content
	// keys) across three tiers, enqueued lowest-tier first so FIFO order
	// alone would fail the assertion.
	type queued struct {
		job  sweep.Job
		prio int
	}
	var qs []queued
	tiers := []struct {
		name string
		prio int
	}{{"free", 0}, {"standard", 2}, {"premium", 5}}
	n := 0
	for _, tier := range tiers {
		for i := 0; i < 3; i++ {
			n++
			spec := fmt.Sprintf(`{"instructions": %d, "benchmarks": ["compress"],
			  "architectures": [{"kind": "1cycle"}]}`, 1000*n)
			qs = append(qs, queued{specJobs(t, spec)[0], tier.prio})
		}
	}
	prioOf := make(map[uint64]int, len(qs))
	for _, q := range qs {
		prioOf[q.job.Config.MaxInstructions] = q.prio
	}

	// Park all nine in the queue before any worker exists. Enqueue order
	// is sequential (each call confirmed queued via Stats before the
	// next), so intra-tier FIFO is deterministic too.
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(q queued) {
			defer wg.Done()
			ctx := tenant.NewContext(context.Background(),
				tenant.Admission{Tenant: fmt.Sprintf("prio%d", q.prio), Priority: q.prio})
			f.coord.SimulateContext(ctx, q.job)
		}(q)
		deadline := time.Now().Add(5 * time.Second)
		for f.coord.Stats().Pending != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("task %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One worker, one slot: assignment order is pop order.
	var mu sync.Mutex
	var order []uint64
	f.startWorker("serial", 1, func(j sweep.Job) sim.Result {
		mu.Lock()
		order = append(order, j.Config.MaxInstructions)
		mu.Unlock()
		return fakeSim(j)
	})
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(qs) {
		t.Fatalf("worker ran %d jobs, want %d", len(order), len(qs))
	}
	wantPrios := []int{5, 5, 5, 2, 2, 2, 0, 0, 0}
	for i, instr := range order {
		if prioOf[instr] != wantPrios[i] {
			got := make([]int, len(order))
			for j, in := range order {
				got[j] = prioOf[in]
			}
			t.Fatalf("execution tier order = %v, want %v", got, wantPrios)
		}
	}
	// Within the premium tier the three jobs ran in enqueue order.
	for i := 1; i < 3; i++ {
		if order[i] < order[i-1] {
			t.Errorf("intra-tier order not FIFO: %v", order[:3])
		}
	}
}
