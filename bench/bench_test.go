package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// toy shrinks every workload to seconds of work for the test tier. Its
// client count does not divide the op counts, so every split must deal
// the remainder.
var toy = size{
	clients:    3,
	gridInstrs: 3000, gridBenchmarks: []string{"compress", "swim"}, gridPasses: 1, gridSetupReps: 1,
	fixtureInstrs: 3000, fixtureBenchmarks: []string{"compress", "swim"},
	warmFixtureResubmits: 4, warmEpochs: 1, warmEpochSweeps: 4,
	openRate: 40, openArrivals: 8, openParts: 2, openInstrs: 3000, openFixtures: 2, openRestarts: 2, openWarmEvery: 4,
	queryFixtureResubmits: 4, queryEpochs: 1, queryEpochOps: 16, queryResubmitShare: 0.25,
}

func TestGeneratorsDeterministic(t *testing.T) {
	inputs := func(seed uint64) []any {
		g := planGrid(&full, seed)
		return []any{g.seeds, g.passSpec(0), planWarm(&full, seed), planOpen(&full, seed), planQuery(&full, seed)}
	}
	a, b, c := inputs(1), inputs(1), inputs(2)
	names := []string{"grid seeds", "grid specs", "serve-warm", "serve-open", "query-mix"}
	for i, name := range names {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if v, err := percentile(append(xs, 1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples was not refused")
	}
	if v, err := percentile(xs[:100], 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v := median([]float64{3}); v != 3 {
		t.Errorf("median of one sample = %v", v)
	}
}

func TestClosedLoopRunsEveryOpOnce(t *testing.T) {
	for _, n := range []int{0, 4, 7, 500} {
		e := &env{sz: &toy}
		var mu sync.Mutex
		seen := make([]int, n)
		e.closedLoop(n, func(c, i int) {
			if c != i%toy.clients {
				t.Errorf("op %d ran on client %d", i, c)
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		for i, k := range seen {
			if k != 1 {
				t.Errorf("n=%d: op %d ran %d times", n, i, k)
			}
		}
	}
}

// timeVarying matches the /metrics values that measure wall time or
// depend on fsync batching, which differ between any two runs.
var timeVarying = regexp.MustCompile(`(?m)^(rfserved_(uptime_seconds|simulation_seconds_total|instructions_per_second|warehouse_query_seconds_total)|rfserved_wal_(replay_seconds|fsyncs_total|size_bytes)\{[^}]*\}) .*$`)

// TestTimingWrappersTransparent runs one tiny sweep through a server with
// and without the traced run's cache and store wrappers: the stream must
// be byte-identical, and so must /metrics apart from time-valued lines.
func TestTimingWrappersTransparent(t *testing.T) {
	spec := gridSpec("tiny", 3000, tracePool[0], "compress")
	serve := func(tr *tracer) ([]byte, []byte) {
		n, _, err := openNode(t.TempDir(), nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer n.close()
		stream, _, err := sweepOp(context.Background(), tr, n.client(""), spec, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		// After the last row the server still seals the warehouse segment
		// and then releases the sweep's slot: scrape once it has.
		var m []byte
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			resp, err := (&http.Client{Transport: n.transport}).Get(n.url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			m, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(m, []byte(`rfserved_tenant_active_sweeps{tenant="anonymous"} 0`)) || time.Now().After(deadline) {
				break
			}
		}
		return stream, timeVarying.ReplaceAll(m, []byte("$1 <t>"))
	}
	plainStream, plainMetrics := serve(nil)
	tr := newTracer()
	tracedStream, tracedMetrics := serve(tr)
	if !bytes.Equal(plainStream, tracedStream) {
		t.Errorf("streams differ:\n%s\nvs\n%s", plainStream, tracedStream)
	}
	if !bytes.Equal(plainMetrics, tracedMetrics) {
		t.Errorf("/metrics differ:\n%s\nvs\n%s", plainMetrics, tracedMetrics)
	}
	if len(tr.durations("sweep.cache_get")) == 0 || len(tr.durations("store.put")) == 0 {
		t.Error("the wrappers recorded no spans")
	}
}

// noLen is a cache without Len or Reset.
type noLen struct{ sweep.Cache }

func TestTimedCacheForwardsLenAndReset(t *testing.T) {
	jobs, err := gridSpec("tiny", 3000, 1, "compress").Jobs()
	if err != nil {
		t.Fatal(err)
	}
	fake := func(sweep.Job) sim.Result { return sim.Result{Instructions: 1, Cycles: 1, IPC: 1} }
	mem := sweep.NewMemCache()
	r := sweep.NewRunner(sweep.RunnerConfig{Simulate: fake, Cache: &timedCache{inner: mem, tr: newTracer()}})
	r.RunOutcomes(jobs, 1)
	if r.CacheLen() != len(jobs) || mem.Len() != len(jobs) {
		t.Errorf("CacheLen through the wrapper = %d, inner %d; want %d", r.CacheLen(), mem.Len(), len(jobs))
	}
	r.ResetCache()
	if r.CacheLen() != 0 || mem.Len() != 0 {
		t.Errorf("ResetCache did not reach the wrapped cache: %d entries left", mem.Len())
	}
	bare := sweep.NewRunner(sweep.RunnerConfig{Simulate: fake, Cache: noLen{sweep.NewMemCache()}})
	wrapped := sweep.NewRunner(sweep.RunnerConfig{Simulate: fake,
		Cache: &timedCache{inner: noLen{sweep.NewMemCache()}, tr: newTracer()}})
	if bare.CacheLen() != -1 || wrapped.CacheLen() != -1 {
		t.Errorf("CacheLen of a cache without Len: bare %d, wrapped %d; want -1", bare.CacheLen(), wrapped.CacheLen())
	}
}

// TestToyWorkloads runs every part of every workload at toy size,
// untraced and traced, and wants every op to pass its output check.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for part := 0; part < toy.parts(w.name); part++ {
			for _, traced := range []bool{false, true} {
				name := w.name
				if toy.parts(w.name) > 1 {
					name += fmt.Sprintf("/part%d", part)
				}
				if traced {
					name += "/traced"
				}
				t.Run(name, func(t *testing.T) {
					e := &env{sz: &toy, seed: 1, part: part, dir: t.TempDir()}
					if traced {
						e.tr = newTracer()
						e.layers.tr = e.tr
					}
					if err := w.run(context.Background(), e); err != nil {
						t.Fatal(err)
					}
					if e.tally.attempted == 0 || e.tally.failed != 0 {
						t.Fatalf("%d of %d ops failed: %v", e.tally.failed, e.tally.attempted, e.tally.errs)
					}
				})
			}
		}
	}
}

func TestShareSplitsEveryItemOnce(t *testing.T) {
	for _, n := range []int{0, 7, 240} {
		for parts := 1; parts <= 3; parts++ {
			next := 0
			for k := 0; k < parts; k++ {
				lo, hi := share(n, parts, k)
				if lo != next || hi < lo || hi-lo > n/parts+1 {
					t.Errorf("share(%d, %d, %d) = [%d, %d), previous part ended at %d", n, parts, k, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Errorf("%d items in %d parts: the parts end at %d", n, parts, next)
			}
		}
	}
}

// TestMergeParts pins how a split workload's parts combine: ops add up,
// values average, samples add up, digests list in part order.
func TestMergeParts(t *testing.T) {
	a := &report{Workload: "serve-open", Attempted: 120, Digest: "aa",
		Values: map[string]float64{"op_p50_ms": 60, "max_rss_mb": 300, "samples": 120, "error_ratio": 0}}
	b := &report{Workload: "serve-open", Part: 1, Attempted: 120, Failed: 3, Errors: []string{"x"}, Digest: "bb",
		Values: map[string]float64{"op_p50_ms": 70, "max_rss_mb": 340, "samples": 117, "error_ratio": 0.025}}
	m := merge([]*report{a, b})
	want := map[string]float64{"op_p50_ms": 65, "max_rss_mb": 320, "samples": 237, "error_ratio": 3.0 / 240}
	if m.Attempted != 240 || m.Failed != 3 || len(m.Errors) != 1 || m.Digest != "aa,bb" || !reflect.DeepEqual(m.Values, want) {
		t.Errorf("merged %+v", m)
	}
	if merge([]*report{a}) != a {
		t.Error("a single part is not its own merge")
	}
}

// TestFoldParsesPprofTraces pins the profile fold to the text layout of
// `go tool pprof -traces` for CPU and heap profiles.
func TestFoldParsesPprofTraces(t *testing.T) {
	out := []byte(`File: bench
Type: cpu
Duration: 15.07s, Total samples = 11.07s (73.45%)
-----------+-------------------------------------------------------
      10ms   repro/internal/sim.(*Simulator).readyHold
             repro/internal/sim.(*Simulator).dispatch
-----------+-------------------------------------------------------
     1.50s   encoding/json.(*encodeState).string (inline)
             repro/internal/sweep.WriteRow
             net/http.(*conn).serve
-----------+-------------------------------------------------------
     bytes:  6.75kB
    1.50MB   repro/internal/trace.newBuilder
             repro/internal/trace.buildProgram
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{0.01, []string{"repro/internal/sim.(*Simulator).readyHold", "repro/internal/sim.(*Simulator).dispatch"}},
		{1.5, []string{"encoding/json.(*encodeState).string", "repro/internal/sweep.WriteRow", "net/http.(*conn).serve"}},
		{1.5 * (1 << 20), []string{"repro/internal/trace.newBuilder", "repro/internal/trace.buildProgram"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v\nwant %+v", got, want)
	}
	for i, b := range []string{"sim.issue_share", "server.json_share", "trace.build_share"} {
		if got := cpuBucket(want[i].stack); got != b {
			t.Errorf("sample %d folds into %q, want %q", i, got, b)
		}
	}
	if got := heapBucket(want[2].stack); got != "heap.trace_mb" {
		t.Errorf("heap sample folds into %q", got)
	}
}
