// Package sweep is the experiment-orchestration engine: it runs batches of
// simulations (a benchmark profile × a processor configuration each)
// through a bounded worker pool with a content-addressed result cache.
//
// Jobs are keyed by a hash of their full semantic content — the workload
// profile, the processor and register file configuration, and the
// instruction budget — so identical configurations requested by different
// sweeps (or repeated within one sweep) are simulated exactly once. The
// figure runners in internal/experiments share one Runner per invocation,
// which removes the cross-figure duplication of the paper's evaluation
// (the 1-cycle baseline alone appears in Figures 2, 6 and 8).
//
// Results are deterministic: a job's outcome depends only on its content,
// never on scheduling, so a sweep produces bit-identical results at any
// parallelism level.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Job is one simulation: a synthetic workload and a processor
// configuration (which embeds the register file architecture and the
// instruction budget).
type Job struct {
	// Profile is the workload; its Seed field makes trace generation
	// deterministic.
	Profile trace.Profile
	// Config is the full processor configuration.
	Config sim.Config
	// Seed, when nonzero, overrides Profile.Seed — the hook for running
	// statistically independent replicates of one benchmark. It
	// participates in the job key, so replicates never collide in the
	// cache.
	Seed uint64
}

// Key is the content address of a Job.
type Key string

// keyable is the canonical serialized form of a job. Cosmetic fields
// (spec names) are excluded so renamed but semantically identical
// configurations share a cache entry.
type keyable struct {
	Profile trace.Profile
	Config  sim.Config
	Seed    uint64
}

// canonical returns the value Key serializes: the job with the register
// file spec's display name cleared.
func (j Job) canonical() keyable {
	k := keyable{Profile: j.Profile, Config: j.Config, Seed: j.Seed}
	k.Config.RF.Name = ""
	return k
}

// Key returns the job's content address: a SHA-256 over the canonical
// JSON encoding of the profile, configuration and seed override, with the
// register file spec's display name cleared.
func (j Job) Key() Key {
	b, err := json.Marshal(j.canonical())
	if err != nil {
		// Profile and Config are plain exported data; Marshal cannot fail
		// on them unless a future field breaks that invariant.
		panic(fmt.Sprintf("sweep: unhashable job: %v", err))
	}
	sum := sha256.Sum256(b)
	return Key(hex.EncodeToString(sum[:]))
}

// profile returns the job's workload with the seed override applied.
func (j Job) profile() trace.Profile {
	p := j.Profile
	if j.Seed != 0 {
		p.Seed = j.Seed
	}
	return p
}

// Simulate runs the job to completion. It is the Runner's default
// Simulate hook, exported so servers can wrap it (e.g. with a global
// concurrency budget) while keeping the same simulation path.
func Simulate(j Job) sim.Result {
	return sim.New(j.Config, trace.New(j.profile())).Run()
}

// SimulateLockstep simulates each job in turn and returns the results in
// job order; jobs may come from different workloads.
//
// Deprecated: use Simulate per job. It remains only for the frozen
// benchmark module under bench/, its sole caller.
func SimulateLockstep(jobs []Job) []sim.Result {
	res := make([]sim.Result, len(jobs))
	for i := range jobs {
		res[i] = Simulate(jobs[i])
	}
	return res
}
