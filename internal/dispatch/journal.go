package dispatch

// Journaling and crash recovery for the Coordinator. With Config.Journal
// set, every state transition a restart must reconstruct is appended to
// the WAL as a small JSON record before the transition becomes visible,
// and NewCoordinator replays snapshot + records into a live task table.
//
// What is journaled: task enqueue (with its job, key and priority tier),
// lease grants and adoptions, requeues, the flip to local fallback, task
// completion, and the worker-id counter. What is deliberately not:
// lease *renewals* — a restarted coordinator cannot honor pre-crash
// leases anyway (workers hold ids from a dead registry and must
// re-register), so renewals would be pure journal churn. Instead,
// replayed tasks come back as pending and the poll-inventory reconcile
// re-adopts live workers: a worker still simulating task N reports N in
// Holding, and the coordinator hands the lease back rather than
// scheduling a duplicate.
//
// Replayed tasks have no waiters (the goroutines blocked in Simulate
// died with the old process). They are still simulated and their results
// retained until a new waiter attaches by key — which is exactly what a
// journaled server does when it resumes its sweeps and re-submits the
// unfinished jobs.

import (
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// Journal record ops. Each record is one JSON object, self-contained
// enough to be applied in order against the snapshot state.
const (
	opEnq     = "enq"     // task created: id, key, job, pri
	opLease   = "lease"   // task leased to a worker: id, wk (attempts++)
	opAdopt   = "adopt"   // live lease re-adopted after restart: id, wk
	opRequeue = "requeue" // lease returned to the queue: id
	opLocal   = "local"   // task flipped to local fallback: id
	opDone    = "done"    // result accepted from a worker: id
	opFDone   = "fdone"   // local fallback completed: id
	opWreg    = "wreg"    // worker registered: seq (id counter continuity)
)

// rec is one journal record. Fields are op-dependent; zero fields are
// omitted from the wire.
type rec struct {
	Op   string     `json:"op"`
	Task uint64     `json:"task,omitempty"`
	Key  string     `json:"key,omitempty"`
	Job  *sweep.Job `json:"job,omitempty"`
	Pri  int        `json:"pri,omitempty"`
	Wk   string     `json:"wk,omitempty"`
	Seq  uint64     `json:"seq,omitempty"`
}

// snapTask is one live task inside a compaction snapshot.
type snapTask struct {
	ID       uint64    `json:"id"`
	Key      string    `json:"key"`
	Job      sweep.Job `json:"job"`
	Pri      int       `json:"pri,omitempty"`
	Attempts int       `json:"attempts,omitempty"`
	// State is "pending", "requeued" (pending, but at the head of the
	// line) or "local"; leased tasks snapshot as pending — their leases
	// cannot survive the restart that would load this snapshot.
	State string `json:"state"`
}

// snapshot is the compaction image: everything a restart needs that the
// discarded records described.
type snapshot struct {
	NextTask   uint64     `json:"next_task"`
	NextWorker uint64     `json:"next_worker"`
	Stats      Stats      `json:"stats"`
	Tasks      []snapTask `json:"tasks,omitempty"`
}

// journalLocked appends one record; a journal write error degrades to
// running unjournaled (the WAL poisons itself after the first failure,
// so this stays cheap). c.mu held.
func (c *Coordinator) journalLocked(r rec) {
	if c.cfg.Journal == nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		return
	}
	c.cfg.Journal.Append(b)
}

// replayState is one task being reconstructed during recovery.
type replayState struct {
	id       uint64
	key      sweep.Key
	job      sweep.Job
	priority int
	attempts int
	local    bool
	requeued bool
	seq      int // arrival order, so rebuilt queues keep FIFO ordering
}

// recover rebuilds the task table from the journal's snapshot + records.
// Called from NewCoordinator before the janitor starts; no locking
// needed, nothing else can see the coordinator yet.
func (c *Coordinator) recover() error {
	live := make(map[uint64]*replayState)
	order := 0
	add := func(t *replayState) {
		t.seq = order
		order++
		live[t.id] = t
		if t.id > c.nextTask {
			c.nextTask = t.id
		}
	}
	if data, _, ok := c.cfg.Journal.Snapshot(); ok {
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("dispatch: corrupt journal snapshot: %w", err)
		}
		c.nextTask = snap.NextTask
		c.nextWorker = snap.NextWorker
		c.stats = snap.Stats
		c.stats.Workers, c.stats.Pending, c.stats.Inflight = 0, 0, 0
		for _, st := range snap.Tasks {
			add(&replayState{
				id: st.ID, key: sweep.Key(st.Key), job: st.Job,
				priority: st.Pri, attempts: st.Attempts,
				local:    st.State == "local",
				requeued: st.State == "requeued",
			})
		}
	}
	err := c.cfg.Journal.Replay(func(_ uint64, payload []byte) error {
		var r rec
		if err := json.Unmarshal(payload, &r); err != nil {
			// An undecodable record is a foreign or damaged payload the
			// CRC could not catch; skipping it loses one transition,
			// aborting would lose the journal. Skip.
			return nil
		}
		t := live[r.Task]
		switch r.Op {
		case opEnq:
			if r.Job == nil {
				return nil
			}
			add(&replayState{id: r.Task, key: sweep.Key(r.Key), job: *r.Job, priority: r.Pri})
		case opLease:
			if t != nil {
				t.attempts++
				t.requeued = false
			}
		case opAdopt:
			if t != nil {
				t.requeued = false
			}
		case opRequeue:
			if t != nil {
				t.requeued = true
				t.seq = order
				order++
			}
		case opLocal:
			if t != nil {
				t.local = true
			}
		case opDone, opFDone:
			delete(live, r.Task)
		case opWreg:
			if r.Seq > c.nextWorker {
				c.nextWorker = r.Seq
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Materialize the survivors. Requeued tasks keep their
	// head-of-the-line position (in requeue order); everything else
	// pending goes back to its priority bucket in arrival order. Local
	// tasks are recreated with the fallback gate already open: the first
	// waiter to attach by key runs the local simulation.
	tasks := make([]*replayState, 0, len(live))
	for _, t := range live {
		tasks = append(tasks, t)
	}
	for i := 1; i < len(tasks); i++ {
		for j := i; j > 0 && tasks[j].seq < tasks[j-1].seq; j-- {
			tasks[j], tasks[j-1] = tasks[j-1], tasks[j]
		}
	}
	for _, rt := range tasks {
		t := &task{
			id: rt.id, key: rt.key, job: rt.job,
			priority: rt.priority, attempts: rt.attempts,
			done: make(chan struct{}), localc: make(chan struct{}),
		}
		c.tasks[t.id] = t
		c.byKey[t.key] = t
		switch {
		case rt.local:
			t.state = taskLocal
			close(t.localc)
		case rt.requeued:
			t.state = taskPending
			c.stats.Pending++
			c.requeued = append(c.requeued, t)
		default:
			t.state = taskPending
			c.stats.Pending++
			c.enqueueLocked(t)
		}
	}
	return nil
}

// snapshotLocked serializes the live task table for compaction. c.mu
// held.
func (c *Coordinator) snapshotLocked() ([]byte, error) {
	snap := snapshot{NextTask: c.nextTask, NextWorker: c.nextWorker, Stats: c.stats}
	snap.Stats.Workers, snap.Stats.Pending, snap.Stats.Inflight = 0, 0, 0
	// Queue order must survive the round trip: requeued first (their
	// snapshot state says so), then buckets by tier, then whatever is
	// live but unqueued (leased or local).
	seen := make(map[uint64]bool, len(c.tasks))
	addTask := func(t *task, state string) {
		if seen[t.id] {
			return
		}
		seen[t.id] = true
		snap.Tasks = append(snap.Tasks, snapTask{
			ID: t.id, Key: string(t.key), Job: t.job,
			Pri: t.priority, Attempts: t.attempts, State: state,
		})
	}
	for _, t := range c.requeued {
		if t.state == taskPending {
			addTask(t, "requeued")
		}
	}
	for _, p := range c.prios {
		for _, t := range c.queue[p] {
			if t.state == taskPending {
				addTask(t, "pending")
			}
		}
	}
	for _, t := range c.tasks {
		switch t.state {
		case taskLocal:
			addTask(t, "local")
		case taskAssigned, taskPending:
			// A leased task snapshots as pending: its lease cannot
			// survive the restart that loads this snapshot, and the
			// holding worker re-adopts it through poll reconcile.
			addTask(t, "pending")
		}
	}
	return json.Marshal(snap)
}

// compactBytes is the live journal size that triggers the janitor's
// compaction.
const compactBytes = 1 << 20

// compact replaces the journal's records with a snapshot of the
// coordinator state.
func (c *Coordinator) compact() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if snap, err := c.snapshotLocked(); err == nil {
		c.cfg.Journal.Compact(snap)
	}
}
