package server

// Crash-resume pin for the journaled server: kill it mid-sweep (no
// Shutdown — nothing flushes beyond what Append already wrote), restart
// on the same journal, and assert the resumed sweep finishes with
// byte-identical NDJSON and zero re-simulation of completed jobs. This
// is the in-process twin of the CI recovery job in scripts/smoke_e2e.sh
// phase 6.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/wal"
	"repro/rf/api"
)

// resumeSpec is testSpec with serialized execution, so rows land one at
// a time and the crash point falls cleanly between jobs.
const resumeSpec = `{
  "name": "resume",
  "instructions": 3000,
  "parallelism": 1,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle"},
    {"kind": "rfcache", "caching": ["nonbypass", "ready"]}
  ]
}`

func openWAL(t *testing.T, dir string) *wal.WAL {
	t.Helper()
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func waitStatus(t *testing.T, base, statusURL string, ok func(int, string) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, base, statusURL)
		if ok(st.Completed, st.State) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached the expected state (completed=%d state=%s)",
				st.Completed, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// compactClosed folds the records of the closed journal under dir into
// a snapshot in the format an older server's compaction wrote
// ({"next_id":N,"records":[...]}), committed through wal.Compact so no
// log remains beside it. The server never compacts its own journal;
// this keeps recovery from such a journal covered. It returns the
// journal's stats after the compaction.
func compactClosed(t *testing.T, dir string) wal.Stats {
	t.Helper()
	j := openWAL(t, dir)
	defer j.Close()
	var snap srvSnapshot
	err := j.Replay(func(_ uint64, payload []byte) error {
		var r srvRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		snap.Records = append(snap.Records, r)
		snap.NextID = max(snap.NextID, idNumber(r.ID))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(data); err != nil {
		t.Fatal(err)
	}
	return j.Stats()
}

// crashMidSweep runs resumeSpec on a journaled server over walDir and
// storeDir until three rows are journaled and the fourth job is blocked
// in the simulator, calls stuck (if non-nil) while it stays blocked, and
// then crashes the server: it closes the HTTP front end and the journal
// file handles but never calls Shutdown, so the abandoned server flushes
// nothing and its in-memory sweep table is lost.
func crashMidSweep(t *testing.T, walDir, storeDir string, stuck func(base string, ack api.SubmitResponse)) api.SubmitResponse {
	t.Helper()
	release := make(chan struct{})
	var sims atomic.Int64
	gated := func(j sweep.Job) sim.Result {
		if sims.Add(1) > 3 {
			<-release
		}
		return fakeSim(j)
	}
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := openWAL(t, walDir)
	srv := New(Config{Cache: st, Simulate: gated, Journal: j})
	ts := httptest.NewServer(srv)
	// Registered before any assertion so it runs after later lives'
	// cleanups but before the TempDir removals: unblock the abandoned
	// server's stuck execute goroutine and wait it out, so it cannot race
	// file writes against the directory cleanup.
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	ack := submit(t, ts.URL, resumeSpec)
	if ack.Jobs != 6 {
		t.Fatalf("spec expanded to %d jobs, want 6", ack.Jobs)
	}
	waitStatus(t, ts.URL, ack.StatusURL, func(completed int, _ string) bool {
		return completed == 3
	})
	if stuck != nil {
		stuck(ts.URL, ack)
	}
	ts.Close()
	j.Close()
	return ack
}

// restart starts the next life of a crashed server on the same journal
// and store, with a simulator that counts every job it is asked to run.
// The returned stop ends the life cleanly; it also runs at cleanup.
func restart(t *testing.T, walDir, storeDir string) (base string, sims *atomic.Int64, stop func()) {
	t.Helper()
	sims = new(atomic.Int64)
	counted := func(j sweep.Job) sim.Result {
		sims.Add(1)
		return fakeSim(j)
	}
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := openWAL(t, walDir)
	srv := New(Config{Cache: st, Simulate: counted, Journal: j})
	ts := httptest.NewServer(srv)
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			j.Close()
		})
	}
	t.Cleanup(stop)
	return ts.URL, sims, stop
}

// TestServerCrashResume crashes a server between rows and restarts it:
// once straight from the record log, and once from a snapshot of the
// sweep compacted while it was still running.
func TestServerCrashResume(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compact bool
	}{
		{"log", false},
		{"snapshot", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir, storeDir := t.TempDir(), t.TempDir()
			ack := crashMidSweep(t, walDir, storeDir, nil)
			if tc.compact {
				if st := compactClosed(t, walDir); st.Compactions != 1 {
					t.Fatalf("Compactions = %d, want 1", st.Compactions)
				}
			}
			base, sims, _ := restart(t, walDir, storeDir)

			waitStatus(t, base, ack.StatusURL, func(_ int, state string) bool {
				return state == "done"
			})
			st := getStatus(t, base, ack.StatusURL)
			if !st.Recovered {
				t.Error("resumed sweep status does not carry the recovered marker")
			}
			if st.Completed != 6 || st.Cached != 0 {
				t.Errorf("resumed status completed=%d cached=%d, want 6 and 0", st.Completed, st.Cached)
			}
			if got := sims.Load(); got != 3 {
				t.Errorf("restart re-simulated %d jobs, want exactly the 3 interrupted ones", got)
			}
			// The acceptance contract: the resumed stream is byte-identical
			// to an uninterrupted run of the same spec.
			got := streamAll(t, base, ack.ResultsURL)
			want := rfbatchNDJSON(t, resumeSpec, fakeSim)
			if got != want {
				t.Errorf("resumed stream differs from uninterrupted output:\n--- resumed ---\n%s--- reference ---\n%s", got, want)
			}
		})
	}
}

// TestServerCrashCanceledSnapshot pins that a snapshot keeps a cancel
// the sweep has not settled: cancel while a job is blocked, crash,
// compact, restart. The sweep must end canceled with nothing re-simulated.
func TestServerCrashCanceledSnapshot(t *testing.T) {
	walDir, storeDir := t.TempDir(), t.TempDir()
	ack := crashMidSweep(t, walDir, storeDir, func(base string, ack api.SubmitResponse) {
		req, err := http.NewRequest(http.MethodDelete, base+ack.StatusURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel returned %d", resp.StatusCode)
		}
	})
	// The blocked job kept the sweep running, so no end record exists:
	// the snapshot alone must carry the cancel.
	compactClosed(t, walDir)
	base, sims, _ := restart(t, walDir, storeDir)
	st := getStatus(t, base, ack.StatusURL)
	if st.State != "canceled" || st.Completed != 3 || !st.Recovered {
		t.Errorf("restarted sweep state=%s completed=%d recovered=%v, want canceled, 3, true",
			st.State, st.Completed, st.Recovered)
	}
	if got := sims.Load(); got != 0 {
		t.Errorf("restart re-simulated %d jobs of a canceled sweep, want 0", got)
	}
}

// TestServerRecoveredSurvivesRestarts pins that the recovered marker is
// journaled, not only held in memory: a sweep resumed and finished in
// the second life still reports recovered in the third, with no
// compaction in between.
func TestServerRecoveredSurvivesRestarts(t *testing.T) {
	walDir, storeDir := t.TempDir(), t.TempDir()
	ack := crashMidSweep(t, walDir, storeDir, nil)
	base, _, stop := restart(t, walDir, storeDir)
	waitStatus(t, base, ack.StatusURL, func(_ int, state string) bool {
		return state == "done"
	})
	want := streamAll(t, base, ack.ResultsURL)
	stop()

	base, sims, _ := restart(t, walDir, storeDir)
	st := getStatus(t, base, ack.StatusURL)
	if st.State != "done" || st.Completed != 6 || !st.Recovered {
		t.Errorf("third life sweep state=%s completed=%d recovered=%v, want done, 6, true",
			st.State, st.Completed, st.Recovered)
	}
	if got := sims.Load(); got != 0 {
		t.Errorf("third life simulated %d jobs, want 0", got)
	}
	if got := streamAll(t, base, ack.ResultsURL); got != want {
		t.Error("third life stream differs from the second life's")
	}
}

// TestServerJournalCompactionResume pins that a snapshot-compacted
// journal still resumes: compact after the sweep finishes and the
// server stops, restart, and assert the terminal sweep is still fully
// servable.
func TestServerJournalCompactionResume(t *testing.T) {
	walDir := t.TempDir()

	j1 := openWAL(t, walDir)
	srv1 := New(Config{Simulate: fakeSim, Journal: j1})
	ts1 := httptest.NewServer(srv1)
	ack := submit(t, ts1.URL, testSpec)
	waitStatus(t, ts1.URL, ack.StatusURL, func(_ int, state string) bool {
		return state == "done"
	})
	want := streamAll(t, ts1.URL, ack.ResultsURL)
	ts1.Close()
	// Shutdown waits for execute, which journals the end record after
	// the state flip the status poll saw.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if st := compactClosed(t, walDir); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}

	j2 := openWAL(t, walDir)
	srv2 := New(Config{Simulate: fakeSim, Journal: j2})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		j2.Close()
	})
	st := getStatus(t, ts2.URL, ack.StatusURL)
	if st.State != "done" || st.Completed != 6 {
		t.Fatalf("terminal sweep not preserved through compaction: %+v", st)
	}
	if st.Recovered {
		t.Error("a sweep that finished before the restart must not be marked recovered")
	}
	if got := streamAll(t, ts2.URL, ack.ResultsURL); got != want {
		t.Error("replayed terminal stream differs from the original")
	}
}
