// Replay-vs-live equivalence for the journaled coordinator: drive a
// dispatch history against a live coordinator, abandon it without
// shutdown (a crash flushes nothing), rebuild a second coordinator from
// the same journal, and assert the scheduling state is identical. These
// run in the short tier so CI's -race job covers the journal append and
// replay paths.
package dispatch_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/rf/api"
)

// journaledConfig is a quiet-janitor config: leases are long so nothing
// expires behind the test's back, polls return immediately.
func journaledConfig(j *wal.WAL) dispatch.Config {
	return dispatch.Config{
		LeaseTTL: time.Minute,
		PollWait: 10 * time.Millisecond,
		Fallback: fakeSim,
		Journal:  j,
	}
}

func openJournal(t *testing.T, dir string) *wal.WAL {
	t.Helper()
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// enqueue starts one waiter per job (priority = index mod 3) and blocks
// until the coordinator has registered all of them, so task ids are
// assigned in job order.
func enqueue(t *testing.T, c *dispatch.Coordinator, jobs []sweep.Job) {
	t.Helper()
	for i, j := range jobs {
		ctx := tenant.NewContext(context.Background(),
			tenant.Admission{Tenant: "equiv", Priority: i % 3})
		job := j
		go c.SimulateContext(ctx, job)
		deadline := time.Now().Add(5 * time.Second)
		for len(c.DebugSnapshot().Tasks) < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("task %d never enqueued", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func register(t *testing.T, c *dispatch.Coordinator, capacity int) string {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/workers/register",
		strings.NewReader(`{"capacity":`+itoa(capacity)+`}`))
	w := httptest.NewRecorder()
	c.HandleRegister(w, r)
	var resp api.RegisterResponse
	decodeBody(t, w, &resp)
	if resp.ID == "" {
		t.Fatalf("registration failed: %s", w.Body)
	}
	return resp.ID
}

func poll(t *testing.T, c *dispatch.Coordinator, id string, req api.PollRequest) api.PollResponse {
	t.Helper()
	body := encodeBody(t, req)
	r := httptest.NewRequest("POST", "/v1/workers/"+id+"/poll", strings.NewReader(body))
	r.SetPathValue("id", id)
	w := httptest.NewRecorder()
	c.HandlePoll(w, r)
	var resp api.PollResponse
	decodeBody(t, w, &resp)
	return resp
}

// normalizeLive converts a live coordinator's state into what a replay
// of its journal must produce. Leases cannot survive the restart, so
// assigned tasks come back as pending in their priority bucket; bucket
// order for once-leased tasks is not part of the contract, so buckets
// compare as sorted sets. The requeued head-of-line order is exact.
func normalizeLive(st dispatch.DebugState) dispatch.DebugState {
	for i, dt := range st.Tasks {
		if dt.State == "assigned" {
			st.Tasks[i].State = "pending"
			st.Buckets[dt.Priority] = append(st.Buckets[dt.Priority], dt.ID)
		}
	}
	sortBuckets(st.Buckets)
	return st
}

func sortBuckets(buckets map[int][]uint64) {
	for _, ids := range buckets {
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
	}
}

// history drives a representative dispatch history against c and
// returns the ids of two tasks left assigned to the first worker. The
// resulting state mixes every journaled transition: fresh pending
// tasks, leases, delivered results, reconcile-requeues, and re-leases
// of requeued work.
func history(t *testing.T, c *dispatch.Coordinator, jobs []sweep.Job) (w1 string, held []uint64) {
	t.Helper()
	enqueue(t, c, jobs)

	w1 = register(t, c, 8)
	leases := poll(t, c, w1, api.PollRequest{Want: 4}).Jobs
	if len(leases) != 4 {
		t.Fatalf("leased %d tasks, want 4", len(leases))
	}
	// Deliver two results; keep holding the other two.
	var results []api.TaskResult
	for _, a := range leases[:2] {
		results = append(results, api.TaskResult{Task: a.Task, Key: a.Key, Result: fakeSim(a.Job)})
	}
	held = []uint64{leases[2].Task, leases[3].Task}
	poll(t, c, w1, api.PollRequest{Results: results, Holding: held})

	// A second worker leases three tasks, then loses them all in a
	// reconcile (its poll response "never arrived"), then re-leases two
	// from the requeued head of the line.
	w2 := register(t, c, 4)
	if got := len(poll(t, c, w2, api.PollRequest{Want: 3}).Jobs); got != 3 {
		t.Fatalf("w2 leased %d tasks, want 3", got)
	}
	poll(t, c, w2, api.PollRequest{Holding: nil})
	if got := len(poll(t, c, w2, api.PollRequest{Want: 2}).Jobs); got != 2 {
		t.Fatalf("w2 re-leased %d tasks, want 2", got)
	}
	return w1, held
}

// TestDispatchReplayEquivalence crashes a journaled coordinator
// mid-history and asserts the replayed coordinator reconstructs the
// same scheduling state, then pins the two recovery behaviors the state
// exists for: a worker re-adopts its in-flight lease through poll
// Holding (zero duplicate simulation), and a new waiter attaches to the
// replayed task by key (no duplicate enqueue) and receives the worker's
// result under the pre-crash task id.
func TestDispatchReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	jobs := append(specJobs(t, testSpec), specJobs(t, strings.Replace(testSpec, "3000", "3001", 1))...)

	j1 := openJournal(t, dir)
	live := dispatch.NewCoordinator(journaledConfig(j1))
	_, held := history(t, live, jobs)
	want := normalizeLive(live.DebugSnapshot())
	// Crash: no coordinator Close (which would flip tasks to local and
	// journal that), no journal flush beyond what Append already wrote.
	j1.Close()

	j2 := openJournal(t, dir)
	defer j2.Close()
	re := dispatch.NewCoordinator(journaledConfig(j2))
	defer re.Close()
	got := re.DebugSnapshot()
	sortBuckets(got.Buckets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs from live state:\n got %+v\nwant %+v", got, want)
	}

	// The pre-crash worker re-registers (its old id is gone) and reports
	// its live inventory: both leases must be adopted, not re-assigned.
	adopter := register(t, re, 8)
	resp := poll(t, re, adopter, api.PollRequest{Holding: held})
	if len(resp.Jobs) != 0 {
		t.Fatalf("adoption poll handed out %d duplicate leases", len(resp.Jobs))
	}
	if st := re.Stats(); st.Adopted != 2 {
		t.Fatalf("Adopted = %d, want 2", st.Adopted)
	}

	// A new waiter attaches to the adopted task by key without minting a
	// new task id...
	var adoptedJob sweep.Job
	for _, j := range jobs {
		if uint64FromKey(re, j) == held[0] {
			adoptedJob = j
		}
	}
	before := re.DebugSnapshot().NextTask
	resc := make(chan sim.Result, 1)
	go func() { resc <- re.Simulate(adoptedJob) }()
	waitAttached(t, re, before)
	// ...and the worker's eventual result resolves it.
	poll(t, re, adopter, api.PollRequest{
		Results: []api.TaskResult{{Task: held[0], Key: string(adoptedJob.Key()), Result: fakeSim(adoptedJob)}},
		Holding: held,
	})
	select {
	case res := <-resc:
		if want := fakeSim(adoptedJob); res.Cycles != want.Cycles || res.Instructions != want.Instructions {
			t.Fatalf("adopted result %+v, want %+v", res, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never received the adopted worker's result")
	}
	if st := re.Stats(); st.Completed == 0 {
		t.Fatal("adopted delivery not counted as completed")
	}
}

// TestDispatchJournalCompaction is the same equivalence through a
// snapshot: compact mid-history, keep going, crash, and assert the
// snapshot + tail records rebuild the same state.
func TestDispatchJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jobs := specJobs(t, testSpec)

	j1 := openJournal(t, dir)
	live := dispatch.NewCoordinator(journaledConfig(j1))
	enqueue(t, live, jobs)
	w1 := register(t, live, 4)
	leases := poll(t, live, w1, api.PollRequest{Want: 2}).Jobs
	live.CompactNow()
	if st := j1.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	// Post-snapshot history: one result delivered, one lease abandoned.
	poll(t, live, w1, api.PollRequest{
		Results: []api.TaskResult{{Task: leases[0].Task, Key: leases[0].Key, Result: fakeSim(leases[0].Job)}},
		Holding: nil,
	})
	want := normalizeLive(live.DebugSnapshot())
	j1.Close()

	j2 := openJournal(t, dir)
	defer j2.Close()
	re := dispatch.NewCoordinator(journaledConfig(j2))
	defer re.Close()
	got := re.DebugSnapshot()
	sortBuckets(got.Buckets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state replayed through a snapshot differs:\n got %+v\nwant %+v", got, want)
	}
	if got.NextTask != uint64(len(jobs)) {
		t.Fatalf("NextTask = %d after replay, want %d", got.NextTask, len(jobs))
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func encodeBody(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeBody(t *testing.T, w *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("decoding %q: %v", w.Body, err)
	}
}

// uint64FromKey finds the live task id for a job via the debug surface.
func uint64FromKey(c *dispatch.Coordinator, j sweep.Job) uint64 {
	key := string(j.Key())
	for _, dt := range c.DebugSnapshot().Tasks {
		if dt.Key == key {
			return dt.ID
		}
	}
	return 0
}

// waitAttached waits until a Simulate call has attached (NextTask must
// NOT advance — attachment is the assertion — so it waits a settling
// interval and then asserts).
func waitAttached(t *testing.T, c *dispatch.Coordinator, before uint64) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	if now := c.DebugSnapshot().NextTask; now != before {
		t.Fatalf("attaching waiter minted task %d; replayed task not found by key", now)
	}
}
