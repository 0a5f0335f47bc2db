package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/rf/api"
)

// Config configures a Coordinator. The zero value is usable: 10 s leases,
// 3 remote attempts, local fallback through sweep.Simulate.
type Config struct {
	// LeaseTTL is how long a worker may go without polling before it is
	// expired and its jobs are requeued; 0 means 10 s.
	LeaseTTL time.Duration
	// PollWait bounds how long an idle poll is held open waiting for work
	// (long poll); 0 means LeaseTTL/4. It is clamped to LeaseTTL/2 so a
	// held poll can never outlive the lease it renews.
	PollWait time.Duration
	// MaxAttempts is how many times a job is handed to a worker before
	// the coordinator gives up on the fleet and simulates it locally;
	// 0 means 3.
	MaxAttempts int
	// MaxCapacity caps the in-flight budget any single worker may request
	// at registration; 0 means 64.
	MaxCapacity int
	// JobTimeout bounds how long one assignment may stay leased before it
	// is requeued even though its worker keeps heartbeating — the defense
	// against a wedged simulation inside a live process. 0 disables it
	// (the default: legitimate jobs can run for minutes, so only an
	// operator who knows the workload's ceiling should set it).
	JobTimeout time.Duration
	// Fallback simulates a job locally when its remote attempts are
	// exhausted (or the coordinator is closed with callers still
	// blocked), at most GOMAXPROCS at once; nil uses sweep.Simulate.
	Fallback func(sweep.Job) sim.Result
	// StoreShards turns on fleet store routing: workers advertise which
	// of this many shard buckets their local store holds, and Peers
	// resolves a key's advertisers for the peer store tier. 0 (the
	// default) disables advertisement and Peers returns nothing.
	StoreShards int
}

// taskState is the lifecycle of one distributed job.
type taskState uint8

const (
	taskPending  taskState = iota // in the queue, waiting for a worker
	taskAssigned                  // leased to a worker
	taskLocal                     // abandoned remotely; a waiter runs the fallback
	taskDone                      // result delivered
)

// task is one job flowing through the fleet. Its content key is its only
// identity: concurrent Simulate calls for the same key share a task, and
// workers report results and held leases by key, so a lease survives a
// coordinator restart as soon as the job is submitted again.
type task struct {
	key        sweep.Key
	job        sweep.Job
	state      taskState
	priority   int       // scheduling tier; higher leaves the queue sooner
	worker     string    // assigned worker id while taskAssigned
	assignedAt time.Time // lease start while taskAssigned (JobTimeout)
	attempts   int       // times handed to a worker

	// done is closed once result is valid; localc is closed when the
	// task falls back to local simulation (a waiter runs it, guarded by
	// fallback).
	done     chan struct{}
	localc   chan struct{}
	result   sim.Result
	fallback sync.Once
}

// worker is one registered fleet member.
type worker struct {
	id         string
	name       string
	capacity   int
	registered time.Time
	expires    time.Time
	inflight   map[sweep.Key]*task
	completed  uint64
	// objectsURL and shards are the worker's store advertisement: where
	// it serves GET /v1/objects/{key} and which shard buckets (modulo
	// Config.StoreShards) hold at least one object. Soft state, rebuilt
	// from the advertisement on every poll, so a restarted coordinator
	// relearns the fleet's inventory as workers re-register.
	objectsURL string
	shards     map[int]bool
}

// Stats is a point-in-time snapshot of fleet activity; it is the wire
// FleetStats document of the public API.
type Stats = api.FleetStats

// Coordinator shards jobs across registered workers. Create one with
// NewCoordinator, hand its Simulate to the sweep runner, mount its
// handlers, and Close it on shutdown.
type Coordinator struct {
	cfg      Config
	localSem chan struct{}
	stop     chan struct{}

	// idPrefix is drawn once per coordinator and starts every worker id
	// it issues, so a worker id from an earlier coordinator process (a
	// restart on the same address) never names a worker of this one.
	idPrefix string

	mu      sync.Mutex
	closed  bool
	workers map[string]*worker
	byKey   map[sweep.Key]*task // live tasks (pending/assigned/local)
	// queue holds pending tasks as one FIFO bucket per priority tier,
	// served highest tier first (prios mirrors the bucket keys, sorted
	// descending); requeued holds leases that came back (expiry,
	// reconciliation, timeout) and is always served before any bucket —
	// those jobs have waited longest, whatever their tier. Either may
	// hold entries whose state moved on; assignment skips them.
	queue      map[int][]*task
	prios      []int
	requeued   []*task
	nextWorker uint64
	wake       chan struct{} // closed+replaced when the queue gains work
	// lastWorker is the last instant at least one worker was registered
	// (coordinator start counts); a drought longer than LeaseTTL drains
	// pending tasks to local fallback.
	lastWorker time.Time
	stats      Stats
}

// NewCoordinator returns a running Coordinator (its lease janitor is
// started); Close it when done.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = cfg.LeaseTTL / 4
	}
	if cfg.PollWait > cfg.LeaseTTL/2 {
		cfg.PollWait = cfg.LeaseTTL / 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.MaxCapacity <= 0 {
		cfg.MaxCapacity = 64
	}
	if cfg.Fallback == nil {
		cfg.Fallback = sweep.Simulate
	}
	c := &Coordinator{
		cfg:        cfg,
		localSem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		stop:       make(chan struct{}),
		idPrefix:   fmt.Sprintf("w%08x-", rand.Uint32()),
		workers:    make(map[string]*worker),
		byKey:      make(map[sweep.Key]*task),
		queue:      make(map[int][]*task),
		wake:       make(chan struct{}),
		lastWorker: time.Now(),
	}
	go c.janitor()
	return c
}

// janitor expires workers that stopped polling, so leased jobs are
// requeued even when no HTTP traffic arrives to observe the expiry.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.expire(now)
		}
	}
}

// expire deregisters every worker whose lease lapsed before now and
// requeues its in-flight tasks; with JobTimeout set it also requeues
// individual leases held too long by workers that are otherwise alive
// (a wedged simulation keeps heartbeating). With the fleet empty for a
// full lease TTL it drains the pending queue into local fallback, so
// queued sweeps are not parked forever waiting for a worker that never
// comes.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if !w.expires.After(now) {
			delete(c.workers, id)
			c.stats.Expired++
			for _, t := range w.inflight {
				c.requeueLocked(t)
			}
			continue
		}
		if c.cfg.JobTimeout > 0 {
			for k, t := range w.inflight {
				if now.Sub(t.assignedAt) > c.cfg.JobTimeout {
					delete(w.inflight, k)
					c.requeueLocked(t)
				}
			}
		}
	}
	if len(c.workers) > 0 {
		c.lastWorker = now
		return
	}
	if now.Sub(c.lastWorker) < c.cfg.LeaseTTL {
		return
	}
	drain := func(t *task) {
		if t.state == taskPending {
			t.state = taskLocal
			c.stats.Pending--
			close(t.localc)
		}
	}
	for _, t := range c.requeued {
		drain(t)
	}
	for _, bucket := range c.queue {
		for _, t := range bucket {
			drain(t)
		}
	}
	c.requeued = c.requeued[:0]
	c.queue = make(map[int][]*task)
	c.prios = c.prios[:0]
}

// requeueLocked returns an assigned task to the queue, or flips it to
// local fallback once its remote attempts are exhausted. c.mu held.
func (c *Coordinator) requeueLocked(t *task) {
	if t.state != taskAssigned {
		return
	}
	t.worker = ""
	c.stats.Inflight--
	if t.attempts >= c.cfg.MaxAttempts {
		t.state = taskLocal
		close(t.localc)
		return
	}
	t.state = taskPending
	c.stats.Pending++
	c.stats.Requeued++
	c.requeued = append(c.requeued, t)
	c.wakeLocked()
}

// wakeLocked signals long-polling workers that the queue has work.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// enqueueLocked appends a pending task to its priority bucket, creating
// the bucket (and its slot in the descending prios index) on first use.
// c.mu held.
func (c *Coordinator) enqueueLocked(t *task) {
	if _, ok := c.queue[t.priority]; !ok {
		i := sort.Search(len(c.prios), func(i int) bool { return c.prios[i] < t.priority })
		c.prios = append(c.prios, 0)
		copy(c.prios[i+1:], c.prios[i:])
		c.prios[i] = t.priority
	}
	c.queue[t.priority] = append(c.queue[t.priority], t)
}

// popPendingLocked returns the next pending task — requeued FIFO first,
// then the highest-tier bucket FIFO — discarding stale entries (tasks
// whose state moved on while queued) and empty buckets along the way.
// Nil when nothing is pending. c.mu held.
func (c *Coordinator) popPendingLocked() *task {
	for len(c.requeued) > 0 {
		t := c.requeued[0]
		c.requeued = c.requeued[1:]
		if t.state == taskPending {
			return t
		}
	}
	for len(c.prios) > 0 {
		p := c.prios[0]
		bucket := c.queue[p]
		var t *task
		for len(bucket) > 0 && t == nil {
			if bucket[0].state == taskPending {
				t = bucket[0]
			}
			bucket = bucket[1:]
		}
		if len(bucket) == 0 {
			delete(c.queue, p)
			c.prios = c.prios[1:]
		} else {
			c.queue[p] = bucket
		}
		if t != nil {
			return t
		}
	}
	return nil
}

// Simulate is the execution backend: it enqueues the job for the fleet
// and blocks until a worker delivers the result (or the retry cap moves
// the job to local simulation). It is safe for concurrent use; identical
// concurrent jobs share one in-flight task.
func (c *Coordinator) Simulate(j sweep.Job) sim.Result {
	return c.SimulateContext(context.Background(), j)
}

// SimulateContext is Simulate with admission metadata: a priority tier
// carried by ctx (tenant.FromContext) orders the pending queue, higher
// tiers leased first. The context carries metadata only — cancellation
// is not observed, matching Simulate's contract of always returning a
// valid result. Identical concurrent jobs share one task and wait at
// the first submitter's tier.
func (c *Coordinator) SimulateContext(ctx context.Context, j sweep.Job) sim.Result {
	priority := 0
	if a, ok := tenant.FromContext(ctx); ok {
		priority = a.Priority
	}
	k := j.Key()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.runLocal(j)
	}
	t := c.byKey[k]
	if t == nil {
		t = &task{
			key: k, job: j, state: taskPending, priority: priority,
			done: make(chan struct{}), localc: make(chan struct{}),
		}
		c.byKey[k] = t
		c.enqueueLocked(t)
		c.stats.Enqueued++
		c.stats.Pending++
		c.wakeLocked()
	}
	c.mu.Unlock()
	return c.wait(t)
}

// wait blocks until the task resolves, running the local fallback if the
// task is flipped to taskLocal (exactly one waiter runs it).
func (c *Coordinator) wait(t *task) sim.Result {
	select {
	case <-t.done:
		return t.result
	case <-t.localc:
		t.fallback.Do(func() {
			res := c.runLocal(t.job)
			c.mu.Lock()
			t.result = res
			t.state = taskDone
			delete(c.byKey, t.key)
			c.stats.Fallbacks++
			c.mu.Unlock()
			close(t.done)
		})
		<-t.done
		return t.result
	}
}

// runLocal runs the fallback under the local parallelism bound.
func (c *Coordinator) runLocal(j sweep.Job) sim.Result {
	c.localSem <- struct{}{}
	defer func() { <-c.localSem }()
	return c.cfg.Fallback(j)
}

// Close expires the fleet and flips every live task to local fallback so
// blocked Simulate callers terminate. Subsequent Simulate calls run
// locally. Close is idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, t := range c.byKey {
		if t.state == taskPending || t.state == taskAssigned {
			t.state = taskLocal
			close(t.localc)
		}
	}
	c.stats.Pending, c.stats.Inflight = 0, 0
	c.workers = make(map[string]*worker)
	c.queue = make(map[int][]*task)
	c.prios, c.requeued = nil, nil
	c.wakeLocked()
	c.mu.Unlock()
}

// Stats returns a snapshot of fleet activity.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Workers = len(c.workers)
	return st
}

// ---- HTTP protocol ----

// The wire documents of the protocol live in rf/api, shared with
// rf/client so the two sides cannot drift.

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// HandleRegister serves POST /v1/workers/register.
func (c *Coordinator) HandleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "dispatch: bad registration: %v", err)
		return
	}
	if req.Capacity < 1 {
		req.Capacity = 1
	}
	if req.Capacity > c.cfg.MaxCapacity {
		req.Capacity = c.cfg.MaxCapacity
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "dispatch: coordinator is shutting down")
		return
	}
	c.nextWorker++
	now := time.Now()
	wk := &worker{
		id:         fmt.Sprintf("%s%06d", c.idPrefix, c.nextWorker),
		name:       req.Name,
		capacity:   req.Capacity,
		registered: now,
		expires:    now.Add(c.cfg.LeaseTTL),
		inflight:   make(map[sweep.Key]*task),
		objectsURL: req.ObjectsURL,
	}
	if wk.name == "" {
		wk.name = wk.id
	}
	c.workers[wk.id] = wk
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, api.RegisterResponse{
		ID:          wk.id,
		Capacity:    wk.capacity,
		LeaseMS:     c.cfg.LeaseTTL.Milliseconds(),
		PollMS:      c.cfg.PollWait.Milliseconds(),
		StoreShards: c.cfg.StoreShards,
	})
}

// HandlePoll serves POST /v1/workers/{id}/poll: it renews the worker's
// lease, accepts completed results, and hands out new leases. When the
// worker wants jobs and none are pending, the request is held open up to
// PollWait (long poll) so idle workers pick up new sweeps immediately.
// An unknown worker id (an expired lease, or one issued by an earlier
// coordinator process) gets 404: the worker must re-register and
// re-report; results and held leases are keyed by content, so they stay
// valid under the new id.
func (c *Coordinator) HandlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req api.PollRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "dispatch: bad poll: %v", err)
		return
	}

	c.mu.Lock()
	wk := c.workers[id]
	if wk == nil {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "dispatch: no worker %q (lease expired? re-register)", id)
		return
	}
	wk.expires = time.Now().Add(c.cfg.LeaseTTL)
	// Each advertisement is the worker's complete current inventory, so
	// replace rather than merge; an empty list is indistinguishable from
	// "no store" on the wire and leaves the last advertisement standing
	// (inventories effectively only grow between polls).
	if c.cfg.StoreShards > 0 && len(req.StoreShards) > 0 {
		shards := make(map[int]bool, len(req.StoreShards))
		for _, sh := range req.StoreShards {
			if sh >= 0 && sh < c.cfg.StoreShards {
				shards[sh] = true
			}
		}
		wk.shards = shards
	}
	for _, res := range req.Results {
		c.deliverLocked(wk, res)
	}
	// A reported result leaves the worker's inventory once this response
	// arrives, so only the keys still simulating count as held.
	holding := make(map[sweep.Key]bool, len(req.Holding))
	for _, k := range req.Holding {
		holding[sweep.Key(k)] = true
	}
	for _, res := range req.Results {
		delete(holding, sweep.Key(res.Key))
	}
	// Reconcile before assigning: a lease the worker does not report
	// holding was lost in a dropped poll response — requeue it now,
	// because this worker will never simulate it and its polling keeps
	// the lease alive.
	for k, t := range wk.inflight {
		if !holding[k] {
			delete(wk.inflight, k)
			c.requeueLocked(t)
		}
	}

	deadline := time.Now().Add(c.cfg.PollWait)
	for {
		// Adopt before every assignment pass, including after a long-poll
		// wake: a job the sweep re-submitted while this poll was held may
		// be one the worker is already simulating.
		c.adoptLocked(wk, holding)
		jobs := c.assignLocked(wk, req.Want)
		if len(jobs) > 0 || req.Want <= 0 || c.closed || !time.Now().Before(deadline) {
			wk.expires = time.Now().Add(c.cfg.LeaseTTL)
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, api.PollResponse{
				Jobs: jobs, LeaseMS: c.cfg.LeaseTTL.Milliseconds(),
			})
			return
		}
		wakec := c.wake
		c.mu.Unlock()
		wait := time.NewTimer(time.Until(deadline))
		select {
		case <-wakec:
		case <-wait.C:
		case <-c.stop:
		case <-r.Context().Done():
			wait.Stop()
			return
		}
		wait.Stop()
		c.mu.Lock()
		if c.workers[id] != wk {
			// Expired while the poll was held open (clock skew or a tiny
			// TTL); the worker must re-register.
			c.mu.Unlock()
			writeError(w, http.StatusNotFound, "dispatch: worker %q expired", id)
			return
		}
		wk.expires = time.Now().Add(c.cfg.LeaseTTL)
	}
}

// adoptLocked hands each pending task whose key the worker holds back to
// it as a lease. Such a simulation outlived its lease: the worker
// re-registered after expiry, this coordinator restarted and the server
// re-submitted the job, or JobTimeout took the lease from a wedged
// worker. Adoption keeps assignment from scheduling a duplicate of work
// that is already running. It counts as an attempt, so a wedged worker
// that keeps adopting its timed-out lease still drives the job to local
// fallback after MaxAttempts. c.mu held.
func (c *Coordinator) adoptLocked(wk *worker, holding map[sweep.Key]bool) {
	for k := range holding {
		t := c.byKey[k]
		if t == nil || t.state != taskPending {
			continue
		}
		t.state = taskAssigned
		t.worker = wk.id
		t.assignedAt = time.Now()
		t.attempts++
		wk.inflight[k] = t
		c.stats.Pending--
		c.stats.Inflight++
		c.stats.Adopted++
	}
}

// deliverLocked accepts one reported result. Results are matched by key
// against all live tasks, not just the reporting worker's leases: a
// worker that was expired and re-registered may legitimately deliver a
// task now leased elsewhere (results are deterministic per key, so
// whichever copy lands first wins). c.mu held.
func (c *Coordinator) deliverLocked(wk *worker, res api.TaskResult) {
	t := c.byKey[sweep.Key(res.Key)]
	if t == nil || t.state == taskLocal || t.state == taskDone {
		c.stats.Late++
		return
	}
	switch t.state {
	case taskAssigned:
		if holder := c.workers[t.worker]; holder != nil {
			delete(holder.inflight, t.key)
		}
		c.stats.Inflight--
	case taskPending:
		// Still queued for a retry; the queue entry is skipped once its
		// state leaves taskPending.
		c.stats.Pending--
	}
	t.state = taskDone
	t.result = res.Result
	delete(c.byKey, t.key)
	wk.completed++
	c.stats.Completed++
	close(t.done)
}

// assignLocked leases up to want pending tasks to the worker, bounded by
// its remaining in-flight budget. Requeued tasks go first, then the
// highest priority tier. c.mu held.
func (c *Coordinator) assignLocked(wk *worker, want int) []api.Assignment {
	if budget := wk.capacity - len(wk.inflight); want > budget {
		want = budget
	}
	var out []api.Assignment
	for want > len(out) {
		t := c.popPendingLocked()
		if t == nil {
			return out
		}
		t.state = taskAssigned
		t.worker = wk.id
		t.assignedAt = time.Now()
		t.attempts++
		wk.inflight[t.key] = t
		c.stats.Pending--
		c.stats.Inflight++
		c.stats.Dispatched++
		out = append(out, api.Assignment{Key: string(t.key), Job: t.job})
	}
	return out
}

// HandleWorkers serves GET /v1/workers: the registered fleet plus queue
// counters.
func (c *Coordinator) HandleWorkers(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	out := api.WorkerList{Workers: []api.WorkerInfo{}, Stats: c.stats}
	out.Stats.Workers = len(c.workers)
	for _, wk := range c.workers {
		out.Workers = append(out.Workers, api.WorkerInfo{
			ID: wk.id, Name: wk.name, Capacity: wk.capacity,
			Inflight: len(wk.inflight), Completed: wk.completed,
			Registered:   wk.registered.UTC().Format(time.RFC3339Nano),
			LeaseExpires: wk.expires.UTC().Format(time.RFC3339Nano),
			ObjectsURL:   wk.objectsURL,
			StoreShards:  len(wk.shards),
		})
	}
	c.mu.Unlock()
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].ID < out.Workers[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// Peers implements store.PeerSource: the object-API base URLs of live
// workers advertising the key's shard, rendezvous-ranked by worker name
// so every key has a consistent primary owner even as workers expire
// and re-register (names are stable across re-registration; ids are
// not). Workers that advertise no store, or not this shard, are
// excluded — but all advertisers of the shard are candidates, because a
// worker stores what it simulated, not only what ranking assigns it.
func (c *Coordinator) Peers(k sweep.Key) []string {
	if c.cfg.StoreShards <= 0 {
		return nil
	}
	shard := store.ShardOf(k, c.cfg.StoreShards)
	type cand struct {
		url   string
		score uint64
	}
	c.mu.Lock()
	var cands []cand
	for _, wk := range c.workers {
		if wk.objectsURL == "" || !wk.shards[shard] {
			continue
		}
		cands = append(cands, cand{url: wk.objectsURL, score: store.RendezvousScore(wk.name, shard)})
	}
	c.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].url < cands[j].url
	})
	urls := make([]string, len(cands))
	for i, cd := range cands {
		urls[i] = cd.url
	}
	return urls
}
