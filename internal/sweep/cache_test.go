package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// countingCache wraps a Cache and counts operations.
type countingCache struct {
	Cache
	gets, puts atomic.Int64
}

func (c *countingCache) Get(k Key) (sim.Result, bool) {
	c.gets.Add(1)
	return c.Cache.Get(k)
}

func (c *countingCache) Put(k Key, res sim.Result) {
	c.puts.Add(1)
	c.Cache.Put(k, res)
}

func TestTieredCachePromotesAndWritesThrough(t *testing.T) {
	front := NewMemCache()
	back := &countingCache{Cache: NewMemCache()}
	c := Tiered(front, back)

	k := fakeJob(0).Key()
	want := sim.Result{Cycles: 42}

	// Put writes through to both levels.
	c.Put(k, want)
	if _, ok := front.Get(k); !ok {
		t.Error("put did not reach the front cache")
	}
	if _, ok := back.Cache.Get(k); !ok {
		t.Error("put did not reach the back cache")
	}

	// A front hit never consults the back.
	back.gets.Store(0)
	if res, ok := c.Get(k); !ok || res.Cycles != 42 {
		t.Fatalf("tiered get = %+v, %v", res, ok)
	}
	if back.gets.Load() != 0 {
		t.Error("front hit consulted the back cache")
	}

	// A back-only entry is promoted into the front on Get.
	k2 := fakeJob(1).Key()
	back.Cache.Put(k2, sim.Result{Cycles: 7})
	if res, ok := c.Get(k2); !ok || res.Cycles != 7 {
		t.Fatalf("back-level get = %+v, %v", res, ok)
	}
	if _, ok := front.Get(k2); !ok {
		t.Error("back hit not promoted into the front cache")
	}

	// Nil levels collapse to the other cache.
	if Tiered(front, nil) != Cache(front) || Tiered(nil, back) != Cache(back) {
		t.Error("Tiered with a nil level must return the other level")
	}
}

func TestRunnerUsesConfiguredCache(t *testing.T) {
	shared := NewMemCache()
	var sims atomic.Int64
	mk := func() *Runner {
		return NewRunner(RunnerConfig{
			Cache: shared,
			Simulate: func(Job) sim.Result {
				sims.Add(1)
				return sim.Result{Cycles: 1}
			},
		})
	}
	batch := []Job{fakeJob(0), fakeJob(1)}
	mk().RunOutcomes(batch, 2)
	if got := sims.Load(); got != 2 {
		t.Fatalf("cold batch simulated %d times, want 2", got)
	}
	// A fresh Runner over the same Cache — the cross-process scenario the
	// disk store enables — serves everything from the cache.
	outs := mk().RunOutcomes(batch, 2)
	if got := sims.Load(); got != 2 {
		t.Errorf("warm batch re-simulated: %d total runs", got)
	}
	for i, o := range outs {
		if !o.Cached {
			t.Errorf("warm job %d not marked cached", i)
		}
	}
}

func TestRunOutcomesContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	r := NewRunner(RunnerConfig{
		Simulate: func(Job) sim.Result {
			started <- struct{}{}
			<-release
			return sim.Result{Cycles: 9}
		},
	})
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	var events atomic.Int64
	type runRet struct {
		outs []Outcome
		err  error
	}
	got := make(chan runRet, 1)
	go func() {
		outs, err := r.RunOutcomesContext(ctx, jobs, 2, func(Progress) { events.Add(1) })
		got <- runRet{outs, err}
	}()
	// Wait for the two workers to start, cancel, then release them.
	<-started
	<-started
	cancel()
	close(release)
	ret := <-got
	if ret.err != context.Canceled {
		t.Fatalf("canceled run returned err %v", ret.err)
	}
	finished := 0
	for _, o := range ret.outs {
		if o.Result.Cycles == 9 {
			finished++
		}
	}
	if finished >= len(jobs) {
		t.Error("cancellation did not skip any job")
	}
	if finished == 0 {
		t.Error("in-flight jobs must run to completion")
	}
	if got := events.Load(); int(got) != finished {
		t.Errorf("%d progress events for %d finished jobs", got, finished)
	}
	// A second, uncanceled run completes the remaining jobs.
	outs, err := r.RunOutcomesContext(context.Background(), jobs, 4, nil)
	if err != nil {
		t.Fatalf("clean run returned err %v", err)
	}
	for i, o := range outs {
		if o.Result.Cycles != 9 {
			t.Errorf("job %d has no result after clean run", i)
		}
	}
}

func TestProgressCarriesResult(t *testing.T) {
	r := NewRunner(RunnerConfig{
		Simulate: func(j Job) sim.Result { return sim.Result{Cycles: j.Seed} },
	})
	jobs := []Job{fakeJob(0), fakeJob(1), fakeJob(0)}
	var events []Progress
	if _, err := r.RunOutcomesContext(context.Background(), jobs, 1, func(p Progress) {
		events = append(events, p)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("%d events for %d jobs", len(events), len(jobs))
	}
	for _, e := range events {
		if e.Result.Cycles != jobs[e.Index].Seed {
			t.Errorf("event for job %d carries result %d, want %d",
				e.Index, e.Result.Cycles, jobs[e.Index].Seed)
		}
		if e.Key != jobs[e.Index].Key() {
			t.Errorf("event for job %d carries wrong key", e.Index)
		}
	}
	// Per-call progress must run even when the config has none, and rows
	// built from events must match the returned outcomes.
	for _, e := range events {
		row := RowOf(jobs[e.Index], Outcome{Result: e.Result, Key: e.Key, Cached: e.Cached})
		if row.Cycles != e.Result.Cycles || row.Key != string(e.Key) {
			t.Errorf("RowOf(progress) mismatch for job %d", e.Index)
		}
	}
}

// gatedCache serves from its Cache, but its Get for key gate waits
// until open is closed.
type gatedCache struct {
	Cache
	gate Key
	open chan struct{}
}

func (c *gatedCache) Get(k Key) (sim.Result, bool) {
	if k == c.gate {
		<-c.open
	}
	return c.Cache.Get(k)
}

// TestRunnerStreamsCacheHits pins that the runner reports a cache hit as
// its scan resolves it: the cache's Get for the second hit returns only
// once the first hit's progress event has fired. Every hit is still
// reported before the simulated job, and a within-batch duplicate after
// the job it duplicates.
func TestRunnerStreamsCacheHits(t *testing.T) {
	jobs := []Job{fakeJob(0), fakeJob(1), fakeJob(2), fakeJob(1)}
	mem := NewMemCache()
	for _, i := range []int{0, 2} {
		mem.Put(jobs[i].Key(), sim.Result{Cycles: jobs[i].Seed})
	}
	c := &gatedCache{Cache: mem, gate: jobs[2].Key(), open: make(chan struct{})}
	r := NewRunner(RunnerConfig{
		Cache:    c,
		Simulate: func(j Job) sim.Result { return sim.Result{Cycles: j.Seed} },
	})
	var events []Progress
	done := make(chan error, 1)
	go func() {
		_, err := r.RunOutcomesContext(context.Background(), jobs, 1, func(p Progress) {
			events = append(events, p)
			if p.Index == 0 {
				close(c.open)
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first cache hit was not reported before the scan looked up the next")
	}
	want := []struct {
		index  int
		cached bool
	}{{0, true}, {2, true}, {1, false}, {3, true}}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for n, e := range events {
		if e.Index != want[n].index || e.Cached != want[n].cached || e.Done != n+1 {
			t.Errorf("event %d: job %d cached %v done %d, want job %d cached %v done %d",
				n, e.Index, e.Cached, e.Done, want[n].index, want[n].cached, n+1)
		}
		if e.Result.Cycles != jobs[e.Index].Seed {
			t.Errorf("event %d carries result %d, want %d", n, e.Result.Cycles, jobs[e.Index].Seed)
		}
	}
}

func TestWriteNDJSON(t *testing.T) {
	r := NewRunner(RunnerConfig{
		Simulate: func(j Job) sim.Result {
			return sim.Result{Instructions: 100, Cycles: 50, IPC: 2}
		},
	})
	jobs := []Job{fakeJob(0), fakeJob(0)}
	outs := r.RunOutcomes(jobs, 1)
	rep := NewReport("nd", jobs, outs, r.CacheStats())

	var buf bytes.Buffer
	if err := rep.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON has %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var row Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if row != rep.Rows[i] {
			t.Errorf("line %d decodes to %+v, want %+v", i, row, rep.Rows[i])
		}
	}
	// WriteRow on the same row reproduces the exact line — the invariant
	// the rfserved stream relies on for byte-identical output.
	var one bytes.Buffer
	if err := WriteRow(&one, rep.Rows[0]); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(one.String(), "\n"); got != lines[0] {
		t.Errorf("WriteRow emitted %q, report emitted %q", got, lines[0])
	}
}

// TestCancelBeforeStart ensures a pre-canceled context runs nothing but
// still serves cache hits.
func TestCancelBeforeStart(t *testing.T) {
	var sims atomic.Int64
	r := NewRunner(RunnerConfig{
		Simulate: func(Job) sim.Result {
			sims.Add(1)
			return sim.Result{Cycles: 3}
		},
	})
	warm := []Job{fakeJob(0)}
	r.RunOutcomes(warm, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := r.RunOutcomesContext(ctx, []Job{fakeJob(0), fakeJob(1)}, 1, nil)
	if err == nil {
		t.Fatal("pre-canceled run returned nil error")
	}
	if sims.Load() != 1 {
		t.Error("pre-canceled run simulated")
	}
	if !outs[0].Cached || outs[0].Result.Cycles != 3 {
		t.Error("cache hit not served under a canceled context")
	}
}
