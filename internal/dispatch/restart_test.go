// Coordinator restarts: a coordinator keeps no journal, so a replacement
// starts empty. A worker that kept simulating through the outage names
// its job by content key on every poll, and the replacement adopts that
// lease once the job is submitted again (which a journaled server does
// when it resumes its sweeps), whichever happens first: the re-submit
// or the worker's re-registration.
package dispatch_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// switchable serves the worker protocol of whichever coordinator is
// current, and 502 while none is, like a proxy in front of a
// coordinator that is restarting.
type switchable struct {
	cur atomic.Pointer[dispatch.Coordinator]
}

func (s *switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := s.cur.Load()
	if c == nil {
		http.Error(w, "coordinator restarting", http.StatusBadGateway)
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/register", c.HandleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/poll", c.HandlePoll)
	mux.ServeHTTP(w, r)
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCoordinatorRestartAdoptsByKey(t *testing.T) {
	testRestartAdoption(t, false)
}

// TestCoordinatorRestartAdoptsAfterReregister re-registers the worker
// before the job is re-submitted: its poll is held open (it has a free
// slot), and the re-submit that wakes it must be adopted, not leased to
// it a second time.
func TestCoordinatorRestartAdoptsAfterReregister(t *testing.T) {
	testRestartAdoption(t, true)
}

func testRestartAdoption(t *testing.T, registerFirst bool) {
	// Long holds, so a poll parked before the re-submit is still parked
	// when the re-submit wakes it.
	cfg := dispatch.Config{LeaseTTL: 2 * time.Second, PollWait: time.Second, Fallback: fakeSim}
	sw := &switchable{}
	c1 := dispatch.NewCoordinator(cfg)
	defer c1.Close()
	sw.cur.Store(c1)
	ts := httptest.NewServer(sw)
	defer ts.Close()

	job := specJobs(t, testSpec)[0]
	var sims atomic.Int64
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	simulate := func(j sweep.Job) sim.Result {
		sims.Add(1)
		started <- struct{}{}
		<-gate
		return fakeSim(j)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- dispatch.RunWorker(ctx, dispatch.WorkerConfig{
			Coordinator: ts.URL, Capacity: 2, Simulate: simulate,
		})
	}()
	defer func() {
		cancel()
		<-done
	}()

	// The first coordinator leases the job; its waiter dies with it.
	go c1.Simulate(job)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}

	// Restart: the old process is gone, the new one knows nothing.
	sw.cur.Store(nil)
	c2 := dispatch.NewCoordinator(cfg)
	defer c2.Close()
	resc := make(chan sim.Result, 1)
	resubmit := func() { go func() { resc <- c2.Simulate(job) }() }
	if registerFirst {
		sw.cur.Store(c2)
		waitFor(t, "the worker to re-register", func() bool { return c2.Stats().Workers == 1 })
		time.Sleep(50 * time.Millisecond) // let its next poll park
		resubmit()
	} else {
		resubmit()
		waitFor(t, "the re-submitted job to queue", func() bool { return c2.Stats().Pending == 1 })
		sw.cur.Store(c2)
	}
	waitFor(t, "the running lease to be adopted", func() bool { return c2.Stats().Inflight == 1 })
	close(gate)

	select {
	case res := <-resc:
		if want := fakeSim(job); res.Cycles != want.Cycles || res.Instructions != want.Instructions {
			t.Errorf("waiter got %+v, want %+v", res, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter never got the adopted lease's result")
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("worker simulated the job %d times, want once", n)
	}
	if st := c2.Stats(); st.Adopted != 1 || st.Dispatched != 0 || st.Completed != 1 {
		t.Errorf("restarted coordinator stats = %+v, want 1 adopted, 0 dispatched, 1 completed", st)
	}
}

// TestWorkerIDsDistinctAcrossCoordinators: two coordinators (an old
// process and its replacement) never issue the same worker id, so a
// worker of the old one cannot poll as a worker of the new one and have
// that worker's leases requeued by its inventory.
func TestWorkerIDsDistinctAcrossCoordinators(t *testing.T) {
	register := func(c *dispatch.Coordinator) string {
		t.Helper()
		w := httptest.NewRecorder()
		c.HandleRegister(w, httptest.NewRequest("POST", "/v1/workers/register", strings.NewReader(`{"capacity":1}`)))
		var resp struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.ID == "" {
			t.Fatalf("registration failed: %d %s", w.Code, w.Body)
		}
		return resp.ID
	}
	c1 := dispatch.NewCoordinator(dispatch.Config{})
	defer c1.Close()
	c2 := dispatch.NewCoordinator(dispatch.Config{})
	defer c2.Close()

	seen := map[string]bool{}
	var first string
	for _, c := range []*dispatch.Coordinator{c1, c2} {
		for i := 0; i < 3; i++ {
			id := register(c)
			if seen[id] {
				t.Fatalf("worker id %s issued twice", id)
			}
			seen[id] = true
			if first == "" {
				first = id
			}
		}
	}

	r := httptest.NewRequest("POST", "/v1/workers/"+first+"/poll", strings.NewReader(`{"want":1}`))
	r.SetPathValue("id", first)
	w := httptest.NewRecorder()
	c2.HandlePoll(w, r)
	if w.Code != http.StatusNotFound {
		t.Errorf("poll with the other coordinator's id returned %d, want 404", w.Code)
	}
}

// TestReportedKeyIsNotAdopted: a key whose result rides in a poll leaves
// the worker's inventory once the response arrives, so when that key is
// re-submitted while the poll is held (its result came too early to be
// accepted), the poll leases it afresh instead of adopting a simulation
// the worker no longer holds.
func TestReportedKeyIsNotAdopted(t *testing.T) {
	c := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: 2 * time.Second, PollWait: time.Second, Fallback: fakeSim})
	defer c.Close()
	w := httptest.NewRecorder()
	c.HandleRegister(w, httptest.NewRequest("POST", "/v1/workers/register", strings.NewReader(`{"capacity":2}`)))
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}

	job := specJobs(t, testSpec)[0]
	key := string(job.Key())
	body, err := json.Marshal(map[string]any{
		"results": []map[string]any{{"key": key, "result": fakeSim(job)}},
		"holding": []string{key},
		"want":    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/workers/"+reg.ID+"/poll", strings.NewReader(string(body)))
	r.SetPathValue("id", reg.ID)
	pw := httptest.NewRecorder()
	polled := make(chan struct{})
	go func() {
		c.HandlePoll(pw, r)
		close(polled)
	}()
	waitFor(t, "the early result to be dropped", func() bool { return c.Stats().Late == 1 })
	go c.Simulate(job)
	<-polled

	var resp struct {
		Jobs []wireAssignment `json:"jobs"`
	}
	if err := json.Unmarshal(pw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 || resp.Jobs[0].Key != key {
		t.Errorf("held poll returned %+v, want a fresh lease of %s", resp.Jobs, key)
	}
	if st := c.Stats(); st.Adopted != 0 || st.Dispatched != 1 {
		t.Errorf("stats = %+v, want the key dispatched, not adopted", st)
	}
}
