package server

// Journal replay against inputs no running server writes: snapshots in
// the format that predates record snapshots, and arbitrary bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// sweepsSnapshot is a snapshot in the format that predates record
// snapshots: two finished one-job sweeps (s000001, s000002) stored as
// expanded job lists, rows and done flags.
func sweepsSnapshot(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/snapshot-sweeps.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walWith writes a journal under dir holding snap as its snapshot (when
// non-empty) and then the given records.
func walWith(t testing.TB, dir string, snap []byte, recs ...[]byte) {
	t.Helper()
	j, err := wal.Open(dir, wal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) > 0 {
		j.Compact(snap) // a snapshot wal cannot encode is simply absent
	}
	for _, r := range recs {
		j.Append(r)
	}
	j.Close()
}

// TestServerSweepsSnapshot restarts on a snapshot in the older format:
// the sweep table is dropped with one log line, sweep ids continue from
// its next_id, and the dropped sweeps' results still serve from the
// store.
func TestServerSweepsSnapshot(t *testing.T) {
	walDir, storeDir := t.TempDir(), t.TempDir()
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Cache: st1})
	ack := submit(t, ts1.URL, testSpec)
	waitStatus(t, ts1.URL, ack.StatusURL, func(_ int, state string) bool {
		return state == "done"
	})
	walWith(t, walDir, sweepsSnapshot(t))

	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, format)
	}
	j := openWAL(t, walDir)
	t.Cleanup(func() { j.Close() })
	srv, ts2 := newTestServer(t, Config{Cache: st2, Journal: j, Logf: logf,
		Simulate: func(sweep.Job) sim.Result {
			t.Error("a result the dropped sweeps computed was simulated again")
			return sim.Result{}
		}})
	mu.Lock()
	dropped := 0
	for _, l := range logs {
		if strings.Contains(l, "dropping its sweep table") {
			dropped++
		}
	}
	mu.Unlock()
	if dropped != 1 {
		t.Errorf("logged the dropped sweep table %d times, want once: %q", dropped, logs)
	}
	srv.mu.Lock()
	n := len(srv.sweeps)
	srv.mu.Unlock()
	if n != 0 {
		t.Errorf("%d sweeps survived the older snapshot, want 0", n)
	}

	ack = submit(t, ts2.URL, testSpec)
	if ack.ID != "s000003" {
		t.Errorf("first sweep after the restart is %s, want s000003 (ids must not restart)", ack.ID)
	}
	waitStatus(t, ts2.URL, ack.StatusURL, func(_ int, state string) bool {
		return state == "done"
	})
	if st := getStatus(t, ts2.URL, ack.StatusURL); st.Cached != st.Total {
		t.Errorf("resubmitted sweep cached %d of %d, want every row from the store", st.Cached, st.Total)
	}
}

// fuzzMaxJobs is the MaxJobs bound FuzzServerReplay runs under.
const fuzzMaxJobs = 64

// FuzzServerReplay feeds arbitrary snapshot bytes and newline-separated
// record payloads to New through a journal. Recovery must never panic,
// and no replayed sweep may hold a row table larger than MaxJobs.
func FuzzServerReplay(f *testing.F) {
	rec := func(r any) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	submitRec := func(id, spec string) []byte {
		return rec(srvRec{Op: "submit", ID: id, Spec: spec, Par: 1})
	}
	row := sweep.Row{Benchmark: "compress", Arch: "1cycle", Instructions: 3000, Key: "k"}
	lines := func(recs ...[]byte) []byte { return bytes.Join(recs, []byte("\n")) }

	f.Add([]byte(nil), []byte(nil))
	f.Add(sweepsSnapshot(f), []byte(nil))
	f.Add([]byte(nil), lines(
		submitRec("s000001", testSpec),
		rec(srvRec{Op: "row", ID: "s000001", Index: 2, Row: &row}),
		rec(srvRec{Op: "row", ID: "s000001", Index: 99, Row: &row}),
		rec(srvRec{Op: "cancel", ID: "s000001"}),
	))
	f.Add([]byte(nil), lines(
		submitRec("s000001", testSpec),
		rec(srvRec{Op: "end", ID: "s000001", State: "done", Recovered: true}),
	))
	// Oversized: 18 benchmarks x 10 seeds is past fuzzMaxJobs.
	f.Add([]byte(nil), submitRec("s000001",
		`{"seeds":[1,2,3,4,5,6,7,8,9,10],"architectures":[{"kind":"1cycle"}]}`))
	snap, err := json.Marshal(srvSnapshot{NextID: 4, Records: []srvRec{
		{Op: "submit", ID: "s000004", Spec: resumeSpec},
		{Op: "row", ID: "s000004", Index: -1, Row: &row},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, submitRec("s000004", resumeSpec))
	// One sweep journaled as binary records and as the zero-timestamp
	// JSON of older servers. The binary records must hold no newline,
	// which would split them here.
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(testSpec)); err != nil {
		f.Fatal(err)
	}
	sweepRecs := []srvRec{
		{Op: "submit", ID: "s000001", Spec: compact.String(), Par: 1, Submitted: &at},
		{Op: "row", ID: "s000001", Index: 2, Row: &row},
		{Op: "end", ID: "s000001", State: "done", Finished: &at},
	}
	var binary, legacy [][]byte
	for _, r := range sweepRecs {
		b := mustEncode(f, r)
		if bytes.IndexByte(b, '\n') >= 0 {
			f.Fatalf("binary seed record %x holds a newline", b)
		}
		binary = append(binary, b)
		legacy = append(legacy, rec(legacyRec{Op: r.Op, ID: r.ID, Spec: r.Spec, Par: r.Par,
			Submitted: at, Index: r.Index, Row: r.Row, State: r.State, Finished: at}))
	}
	f.Add([]byte(nil), lines(binary...))
	f.Add([]byte(nil), lines(legacy...))

	f.Fuzz(func(t *testing.T, snap, log []byte) {
		dir := t.TempDir()
		walWith(t, dir, snap, bytes.Split(log, []byte("\n"))...)
		j, err := wal.Open(dir, wal.Options{SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		srv := New(Config{Simulate: fakeSim, Journal: j, MaxJobs: fuzzMaxJobs})
		srv.mu.Lock()
		for id, run := range srv.sweeps {
			run.mu.Lock()
			if len(run.rows) > fuzzMaxJobs || run.completed > len(run.rows) {
				t.Errorf("sweep %s: %d rows, %d completed; MaxJobs is %d",
					id, len(run.rows), run.completed, fuzzMaxJobs)
			}
			run.mu.Unlock()
		}
		srv.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}
