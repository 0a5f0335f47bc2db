package sweep

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/sim"
)

// builtinGrid expands every registered family at its defaults over all 18
// SPEC95 proxies at each seed: at one seed, the 108-job Figure 6 grid the
// served benchmarks resubmit.
func builtinGrid(tb testing.TB, seeds ...uint64) []Job {
	tb.Helper()
	var archs []ArchMatrix
	for _, f := range arch.Families() {
		archs = append(archs, ArchMatrix{Kind: f.Name})
	}
	jobs, err := (&Spec{Seeds: seeds, Architectures: archs}).Jobs()
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// fakeResult stands in for the simulator in tests that only look at keys.
func fakeResult(j Job) sim.Result { return sim.Result{Cycles: j.Config.MaxInstructions} }

// checkKeys reports every outcome whose key differs from Job.Key.
func checkKeys(t *testing.T, what string, jobs []Job, outs []Outcome) {
	t.Helper()
	for i := range jobs {
		if want := jobs[i].Key(); outs[i].Key != want {
			t.Errorf("%s: job %d keyed %.12s, Job.Key is %.12s", what, i, outs[i].Key, want)
		}
	}
}

func TestRunnerKeysMatchJobKey(t *testing.T) {
	jobs := builtinGrid(t, 0, 7)
	if fams := len(arch.Families()); fams < 6 || len(jobs) != fams*18*2 {
		t.Fatalf("grid has %d jobs over %d families, want the 6 built-in families × 18 proxies × 2 seeds", len(jobs), fams)
	}
	r := NewRunner(RunnerConfig{Simulate: fakeResult})
	checkKeys(t, "first batch", jobs, r.RunOutcomes(jobs, 0))
	checkKeys(t, "repeated batch", jobs, r.RunOutcomes(jobs, 0))
	// A renamed spec is the same content: it resolves to the memoized key.
	renamed := append([]Job(nil), jobs...)
	for i := range renamed {
		renamed[i].Config.RF.Name = "renamed"
	}
	checkKeys(t, "renamed batch", renamed, r.RunOutcomes(renamed, 0))
	if n := len(r.keys.m); n == 0 || n > len(jobs) {
		t.Errorf("memo holds %d keys for %d distinct jobs", n, len(jobs))
	}
}

// TestKeyMemoSignedZero pins the ±0 guard: +0 and −0 are == in Go but
// encode differently in JSON, so without the guard whichever of two such
// jobs is keyed first would lend its key to the other.
func TestKeyMemoSignedZero(t *testing.T) {
	pos, neg := fakeJob(0), fakeJob(0)
	pos.Profile.FracStream = 0
	neg.Profile.FracStream = math.Copysign(0, -1)
	if pos.Key() == neg.Key() {
		t.Fatal("±0 jobs share a key; the guard below would test nothing")
	}
	for _, order := range [][]Job{{pos, neg}, {neg, pos}} {
		r := NewRunner(RunnerConfig{Simulate: fakeResult})
		for pass := 0; pass < 2; pass++ {
			for _, j := range order {
				jobs := []Job{j}
				checkKeys(t, "±0 job", jobs, r.RunOutcomes(jobs, 1))
			}
		}
	}
}

// TestMemoizableCoversEveryFloat sets each float anywhere in a job's
// canonical value to −0 and to NaN in turn: memoizable must refuse every
// one, so a float field added to Profile or Config cannot slip past the
// guard.
func TestMemoizableCoversEveryFloat(t *testing.T) {
	base := fakeJob(0).canonical()
	if !memoizable(&base) {
		t.Fatal("an ordinary job is not memoizable")
	}
	floats := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Float32, reflect.Float64:
			floats++
			old := v.Float()
			for _, f := range []float64{math.Copysign(0, -1), math.NaN()} {
				v.SetFloat(f)
				if memoizable(&base) {
					t.Errorf("memoizable accepts %s = %v", path, f)
				}
			}
			v.SetFloat(old)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "keyable")
	if floats == 0 {
		t.Fatal("found no float in the canonical job value")
	}
}

// TestKeyMemoBounded churns ten times the cap of distinct jobs through
// one Runner: the memo never holds more than keyMemoCap keys, and every
// key still matches Job.Key.
func TestKeyMemoBounded(t *testing.T) {
	const batch = 256
	r := NewRunner(RunnerConfig{Simulate: fakeResult})
	for start := 0; start < 10*keyMemoCap; start += batch {
		jobs := make([]Job, batch)
		for i := range jobs {
			jobs[i] = fakeJob(start + i)
		}
		checkKeys(t, "churn batch", jobs, r.RunOutcomes(jobs, 0))
		if n := len(r.keys.m); n > keyMemoCap {
			t.Fatalf("memo holds %d keys after %d jobs, cap %d", n, start+batch, keyMemoCap)
		}
	}
}

// TestKeyMemoConcurrentBatches submits overlapping grids to one Runner
// from several goroutines, the shape of a server's shared runner. Run
// under -race -count=10.
func TestKeyMemoConcurrentBatches(t *testing.T) {
	grids := [][]Job{builtinGrid(t, 0), builtinGrid(t, 7), builtinGrid(t, 0, 7)}
	want := make([][]Key, len(grids))
	for g, jobs := range grids {
		for _, j := range jobs {
			want[g] = append(want[g], j.Key())
		}
	}
	r := NewRunner(RunnerConfig{Simulate: fakeResult})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				g := (c + pass) % len(grids)
				outs := r.RunOutcomes(grids[g], 2)
				for i := range outs {
					if outs[i].Key != want[g][i] {
						t.Errorf("client %d grid %d job %d keyed %.12s, want %.12s", c, g, i, outs[i].Key, want[g][i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRunnerGoroutinesBoundedBySlots runs 2000 cold jobs at parallelism
// 2 with a Simulate hook that blocks: while it blocks, the batch holds
// its slot holders and little else, not one parked goroutine per job.
func TestRunnerGoroutinesBoundedBySlots(t *testing.T) {
	const jobsN, parallelism, slack = 2000, 2, 4
	started := make(chan struct{}, jobsN)
	release := make(chan struct{})
	r := NewRunner(RunnerConfig{Simulate: func(j Job) sim.Result {
		started <- struct{}{}
		<-release
		return fakeResult(j)
	}})
	jobs := make([]Job, jobsN)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	base := runtime.NumGoroutine()
	done := make(chan []Outcome, 1)
	go func() { done <- r.RunOutcomes(jobs, parallelism) }()
	for i := 0; i < parallelism; i++ {
		<-started
	}
	// Whatever the batch would start beyond its slots it starts without
	// waiting on anything, so a short watch sees it.
	peak := 0
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		peak = max(peak, runtime.NumGoroutine())
	}
	close(release)
	outs := <-done
	if grown := peak - base; grown > parallelism+slack {
		t.Errorf("%d goroutines over the baseline while %d slots were busy, want at most %d",
			grown, parallelism, parallelism+slack)
	}
	for i := range outs {
		if outs[i].Result.Cycles == 0 {
			t.Fatalf("job %d has no result", i)
		}
	}
}

// BenchmarkJobKey measures key derivation per job over the Figure 6
// grid: "cold" runs Job.Key (JSON encoding and SHA-256), "memo-hit" a
// Runner's memo lookup for a job it keyed before.
func BenchmarkJobKey(b *testing.B) {
	jobs := builtinGrid(b, 0)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkKey = jobs[i%len(jobs)].Key()
		}
	})
	b.Run("memo-hit", func(b *testing.B) {
		var m keyMemo
		for _, j := range jobs {
			m.key(j)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkKey = m.key(jobs[i%len(jobs)])
		}
	})
}

var sinkKey Key
