package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/rf/api"
	"repro/rf/client"
)

// jitter spreads a retry delay uniformly over (0, d] (full jitter), so a
// fleet of workers knocked loose by the same coordinator restart does
// not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(1 + rand.Int64N(int64(d)))
}

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. http://host:8090.
	Coordinator string
	// Name labels the worker in the coordinator's fleet listing.
	Name string
	// Capacity is the in-flight budget to request: how many jobs the
	// worker simulates concurrently; 0 uses GOMAXPROCS.
	Capacity int
	// Simulate executes one job; nil uses sweep.Simulate. rfserved worker
	// mode routes this through its own cached runner, so a worker's local
	// store also deduplicates.
	Simulate func(sweep.Job) sim.Result
	// ObjectsURL advertises where this worker serves its local result
	// store over GET /v1/objects/{key} (its own rfserved base URL).
	// Empty means no advertisement: the coordinator will not route peer
	// store reads here.
	ObjectsURL string
	// Inventory reports the shard buckets (modulo the coordinator's
	// announced shard count) the worker's store currently holds, sent
	// with every poll. Nil means no advertisement.
	Inventory func(shards int) []int
	// Client issues the HTTP requests; nil uses a default client. Polls
	// are long-held by design, so no fixed Client.Timeout is set —
	// instead every exchange carries a per-request deadline derived from
	// the lease (so a black-holed connection fails in about a lease
	// rather than hanging until TCP gives up).
	Client *http.Client
	// Logf, when non-nil, receives connection lifecycle messages
	// (registrations, retried errors).
	Logf func(format string, args ...any)
}

// RunWorker registers with the coordinator and executes its jobs until
// ctx is canceled (returning ctx.Err()). Finished results are reported on
// the next poll; polls double as lease heartbeats. Transient errors are
// retried with backoff, and an expired lease (404) triggers
// re-registration — completed-but-unreported results are retained across
// both, so they are never lost to a network blip, and since every poll
// names held jobs by content key, a restarted coordinator adopts the
// running ones instead of leasing them out again. Jobs in flight when ctx
// is canceled are abandoned; the coordinator's lease expiry requeues
// them elsewhere.
//
// All HTTP exchanges go through rf/client — the same wire implementation
// rfbatch -remote and external consumers use.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	if cfg.Simulate == nil {
		cfg.Simulate = sweep.Simulate
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	opts := []client.Option{client.WithLogf(cfg.Logf)}
	if cfg.Client != nil {
		opts = append(opts, client.WithHTTPClient(cfg.Client))
	}
	w := &workerState{cfg: cfg, cl: client.New(cfg.Coordinator, opts...)}
	if err := w.register(ctx); err != nil {
		return err
	}

	// The coordinator may clamp the requested capacity; budget against
	// the granted value (refreshed on re-registration). The channel is
	// sized for the request, which the grant never exceeds.
	capacity := w.capacity
	finished := make(chan api.TaskResult, cfg.Capacity)
	inflight := 0
	var backlog []api.TaskResult // finished, not yet accepted by the coordinator
	// held inventories the key of every lease this worker owns
	// (simulating or in backlog); polls carry it so the coordinator can
	// requeue leases that were lost in a dropped poll response, and adopt
	// the ones a restarted coordinator no longer knows it granted.
	held := make(map[string]struct{})
	backoff := time.Duration(0)
	// The first poll happens immediately; afterwards the timer paces
	// heartbeats when the worker sits at capacity.
	timer := time.NewTimer(0)
	defer timer.Stop()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case res := <-finished:
			inflight--
			backlog = append(backlog, res)
		case <-timer.C:
		}
		// Batch everything else already finished into the same report.
		for {
			select {
			case res := <-finished:
				inflight--
				backlog = append(backlog, res)
				continue
			default:
			}
			break
		}

		holding := make([]string, 0, len(held))
		for k := range held {
			holding = append(holding, k)
		}
		resp, err := w.poll(ctx, backlog, holding, capacity-inflight)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			var ae *client.APIError
			if errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound {
				// Lease expired or the coordinator restarted: re-register
				// and re-report the backlog under the new identity.
				cfg.Logf("dispatch: lease expired, re-registering: %v", err)
				if err := w.register(ctx); err != nil {
					return err
				}
				capacity = w.capacity
				timer.Reset(0)
				continue
			}
			backoff = min(max(backoff*2, 100*time.Millisecond), w.heartbeat())
			delay := jitter(backoff)
			cfg.Logf("dispatch: poll failed (retrying in %v): %v", delay, err)
			timer.Reset(delay)
			continue
		}
		backoff = 0
		for _, res := range backlog {
			delete(held, res.Key)
		}
		backlog = nil
		for _, a := range resp.Jobs {
			if _, ok := held[a.Key]; ok {
				// Already simulating this key: its result reports the
				// new lease too.
				continue
			}
			inflight++
			held[a.Key] = struct{}{}
			go func(a api.Assignment) {
				res := cfg.Simulate(a.Job)
				select {
				case finished <- api.TaskResult{Key: a.Key, Result: res}:
				case <-ctx.Done():
				}
			}(a)
		}
		if inflight < capacity {
			// Capacity to spare: poll again immediately. The coordinator
			// long-polls when it has nothing, so this does not spin.
			timer.Reset(0)
		} else {
			timer.Reset(w.heartbeat())
		}
	}
}

// workerState is one worker's registration state over the shared client.
type workerState struct {
	cfg      WorkerConfig
	cl       *client.Client
	id       string
	capacity int // granted by the coordinator; ≤ cfg.Capacity
	leaseMS  int64
	pollMS   int64
	// shards is the coordinator's announced store shard-bucket count;
	// 0 disables inventory advertisement.
	shards int
}

// requestBound is the per-request deadline: a healthy exchange finishes
// within one long-poll hold, so a full lease plus two holds means the
// connection is dead — fail it and let the retry/re-register machinery
// take over instead of waiting for TCP to notice.
func (w *workerState) requestBound() time.Duration {
	d := time.Duration(w.leaseMS+2*w.pollMS) * time.Millisecond
	if d <= 0 {
		d = 30 * time.Second // pre-registration default
	}
	return d
}

// heartbeat is how often a busy worker polls to keep its lease: a third
// of the TTL, so two consecutive failures still fit inside a lease.
func (w *workerState) heartbeat() time.Duration {
	d := time.Duration(w.leaseMS) * time.Millisecond / 3
	if d <= 0 {
		d = time.Second
	}
	return d
}

// register acquires a worker id, retrying transient failures with
// backoff until ctx is canceled.
func (w *workerState) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	// One timer reused across attempts: time.After in a retry loop leaks
	// a timer per attempt until it fires, which adds up over a long
	// coordinator outage.
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		rctx, cancel := context.WithTimeout(ctx, w.requestBound())
		resp, err := w.cl.RegisterWorker(rctx,
			api.RegisterRequest{Name: w.cfg.Name, Capacity: w.cfg.Capacity,
				ObjectsURL: w.cfg.ObjectsURL})
		cancel()
		if err == nil {
			w.id = resp.ID
			w.leaseMS = resp.LeaseMS
			w.pollMS = resp.PollMS
			w.shards = resp.StoreShards
			w.capacity = resp.Capacity
			if w.capacity <= 0 || w.capacity > w.cfg.Capacity {
				w.capacity = w.cfg.Capacity
			}
			w.cfg.Logf("dispatch: registered as %s (capacity %d, lease %dms)",
				resp.ID, w.capacity, resp.LeaseMS)
			return nil
		}
		var ae *client.APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable {
			return fmt.Errorf("dispatch: coordinator rejected registration: %w", err)
		}
		delay := jitter(backoff)
		w.cfg.Logf("dispatch: register failed (retrying in %v): %v", delay, err)
		timer.Reset(delay)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		backoff = min(backoff*2, 5*time.Second)
	}
}

// poll reports finished results (and the full held-lease inventory) and
// asks for up to want new jobs, bounded by requestBound on top of the
// caller's context.
func (w *workerState) poll(ctx context.Context, results []api.TaskResult, holding []string, want int) (*api.PollResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, w.requestBound())
	defer cancel()
	req := api.PollRequest{Results: results, Holding: holding, Want: want}
	// Advertise the store inventory when the coordinator shards the
	// fleet store: each poll carries the complete current bucket set.
	if w.shards > 0 && w.cfg.Inventory != nil && w.cfg.ObjectsURL != "" {
		req.StoreShards = w.cfg.Inventory(w.shards)
	}
	return w.cl.PollWorker(rctx, w.id, req)
}
