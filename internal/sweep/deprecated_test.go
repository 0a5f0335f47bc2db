package sweep

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestDeprecatedShims pins the two compatibility shims kept for the
// benchmark module under bench/: SimulateLockstep is Simulate applied to
// each job, and a RunnerConfig.SimulateBatch hook becomes the runner's
// per-job Simulate.
func TestDeprecatedShims(t *testing.T) {
	jobs := realJobs(t)          // two workloads: compress and swim
	jobs = append(jobs, jobs[0]) // a within-batch duplicate
	unique := len(jobs) - 1

	ndjson := func(t *testing.T, r *Runner, par int) []byte {
		t.Helper()
		outs := r.RunOutcomes(jobs, par)
		var buf bytes.Buffer
		for i := range jobs {
			if err := WriteRow(&buf, RowOf(jobs[i], outs[i])); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"SimulateLockstep equals Simulate per job across workloads", func(t *testing.T) {
			got := SimulateLockstep(jobs)
			if len(got) != len(jobs) {
				t.Fatalf("got %d results for %d jobs", len(got), len(jobs))
			}
			for i := range jobs {
				if want := Simulate(jobs[i]); !reflect.DeepEqual(got[i], want) {
					t.Errorf("job %d (%s): IPC %.6f, want %.6f", i, jobs[i].Profile.Name, got[i].IPC, want.IPC)
				}
			}
		}},
		{"SimulateBatch runs once per unique job and is cached", func(t *testing.T) {
			var mu sync.Mutex
			var lens []int
			r := NewRunner(RunnerConfig{SimulateBatch: func(js []Job) []sim.Result {
				mu.Lock()
				lens = append(lens, len(js))
				mu.Unlock()
				return SimulateLockstep(js)
			}})
			// RunOutcomes waits for every hook call, so lens is settled
			// when it returns.
			first := r.RunOutcomes(jobs, 4)
			if len(lens) != unique {
				t.Fatalf("hook called %d times, want %d (one per unique job)", len(lens), unique)
			}
			for _, n := range lens {
				if n != 1 {
					t.Fatalf("hook batch lengths %v, want all 1", lens)
				}
			}
			again := r.RunOutcomes(jobs, 4)
			if len(lens) != unique {
				t.Errorf("warm rerun called the hook again: %d calls, want %d", len(lens), unique)
			}
			for i := range jobs {
				if !again[i].Cached || !reflect.DeepEqual(again[i].Result, first[i].Result) {
					t.Errorf("job %d: warm rerun not served from the cache (cached=%v)", i, again[i].Cached)
				}
			}
		}},
		{"SimulateBatch rows equal the default runner's", func(t *testing.T) {
			for _, par := range []int{1, 8} {
				got := ndjson(t, NewRunner(RunnerConfig{SimulateBatch: SimulateLockstep}), par)
				want := ndjson(t, NewRunner(RunnerConfig{}), par)
				if !bytes.Equal(got, want) {
					t.Errorf("parallelism %d: rows differ:\n--- SimulateBatch ---\n%s--- default ---\n%s", par, got, want)
				}
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}
