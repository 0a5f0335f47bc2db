// Package dispatch distributes sweep jobs across a fleet of worker
// processes. A Coordinator is an execution backend for the rfserved
// scheduler: its Simulate method enqueues the job and blocks until a
// registered worker returns the result — so the coordinator's existing
// runner machinery (content-addressed cache, within-batch dedup, in-order
// row streaming) is reused unchanged, and the NDJSON stream of a
// distributed sweep is byte-identical to a single-node run.
//
// Workers pull work over HTTP:
//
//	POST /v1/workers/register         → {id, lease_ms, poll_ms}
//	POST /v1/workers/{id}/poll        report results, lease new jobs
//	GET  /v1/workers                  fleet status
//
// Every poll renews the worker's lease. A worker that stops polling for
// a full lease TTL is expired: it is deregistered and its leased jobs
// are requeued at the front of the queue. Each poll also carries the
// worker's held-lease inventory, so an assignment lost in a dropped poll
// response is reconciled and requeued instead of lingering as a ghost.
// A job handed out MaxAttempts times without a result stops being
// retried remotely and is simulated locally by the coordinator (the
// Fallback hook); likewise, when no worker has been registered for a
// full lease TTL the janitor drains the pending queue into local
// simulation — so a sweep always completes even with zero live workers.
// Results are keyed by the job's content address; identical jobs
// submitted concurrently (across sweeps) share one task, so the fleet
// simulates each configuration at most once.
//
// Leases are granted per job, and a worker runs each assignment through
// one WorkerConfig.Simulate call, concurrently up to its granted
// capacity; results are reported on the next poll.
//
// A task has no identity but its job's content key: leases, results and
// the held-lease inventory all name keys. The coordinator keeps no
// journal. A restarted one starts empty, and when a journaled server
// resumes its sweeps and re-submits the unfinished jobs, a worker still
// simulating one reports its key as held, and the coordinator hands
// that lease back to it (adoption) instead of scheduling a duplicate.
//
// See docs/ARCHITECTURE.md for the protocol walkthrough and failure
// matrix.
package dispatch
