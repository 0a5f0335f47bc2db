package dispatch

// DebugTask is one live task's scheduling-relevant state, exported for
// the replay-equivalence tests.
type DebugTask struct {
	ID       uint64
	Key      string
	Priority int
	Attempts int
	State    string // "pending", "assigned" or "local"
}

// DebugState is a point-in-time image of the coordinator's scheduling
// state: the live task table plus the queue structure (stale entries
// skipped, exactly as assignment would skip them). Tests only.
type DebugState struct {
	NextTask   uint64
	NextWorker uint64
	// Requeued lists live pending tasks at the head of the line, in
	// serving order; Buckets lists the remaining pending tasks per
	// priority tier in serving order.
	Requeued []uint64
	Buckets  map[int][]uint64
	Tasks    []DebugTask
}

func (c *Coordinator) DebugSnapshot() DebugState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := DebugState{
		NextTask:   c.nextTask,
		NextWorker: c.nextWorker,
		Buckets:    make(map[int][]uint64),
	}
	for _, t := range c.requeued {
		if t.state == taskPending {
			st.Requeued = append(st.Requeued, t.id)
		}
	}
	inRequeued := make(map[uint64]bool, len(st.Requeued))
	for _, id := range st.Requeued {
		inRequeued[id] = true
	}
	for _, p := range c.prios {
		for _, t := range c.queue[p] {
			if t.state == taskPending && !inRequeued[t.id] {
				st.Buckets[p] = append(st.Buckets[p], t.id)
			}
		}
	}
	for _, t := range c.tasks {
		dt := DebugTask{ID: t.id, Key: string(t.key), Priority: t.priority, Attempts: t.attempts}
		switch t.state {
		case taskPending:
			dt.State = "pending"
		case taskAssigned:
			dt.State = "assigned"
		case taskLocal:
			dt.State = "local"
		default:
			continue
		}
		st.Tasks = append(st.Tasks, dt)
	}
	for i := 1; i < len(st.Tasks); i++ {
		for j := i; j > 0 && st.Tasks[j].ID < st.Tasks[j-1].ID; j-- {
			st.Tasks[j], st.Tasks[j-1] = st.Tasks[j-1], st.Tasks[j]
		}
	}
	return st
}

// CompactNow runs the janitor's compaction check synchronously. Tests
// only.
func (c *Coordinator) CompactNow() { c.maybeCompact() }

// LiveEntries returns the sizes of the coordinator's per-task maps: live
// tasks by id and by content address, and leases held summed over the
// registered workers. Tests only.
func (c *Coordinator) LiveEntries() (tasks, byKey, inflight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		inflight += len(w.inflight)
	}
	return len(c.tasks), len(c.byKey), inflight
}
