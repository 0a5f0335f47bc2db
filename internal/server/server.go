// Package server implements rfserved, the HTTP sweep service: clients
// submit JSON sweep specifications (the same schema cmd/rfbatch reads),
// poll sweep status, and stream per-job result rows as NDJSON while the
// sweep runs. All sweeps share one cached sweep.Runner — usually backed
// by the disk store in internal/store — so a configuration simulated for
// any client is never simulated again for another.
//
// API (see the README for schemas):
//
//	POST   /v1/sweeps               submit a sweep spec → 202 + {id, ...}
//	GET    /v1/sweeps               list sweeps
//	GET    /v1/sweeps/{id}          sweep status
//	GET    /v1/sweeps/{id}/results  NDJSON row stream (live)
//	DELETE /v1/sweeps/{id}          cancel a running sweep
//	GET    /metrics                 Prometheus-style text metrics
//	GET    /healthz                 liveness probe
//
// Scheduling is doubly bounded: each sweep runs through the runner's
// per-sweep worker budget, and every simulation additionally acquires a
// global slot, so many concurrent sweeps cannot oversubscribe the host.
// Rows stream in job order — the order cmd/rfbatch emits — so a sweep's
// streamed NDJSON is byte-identical to an rfbatch -ndjson run of the
// same spec.
//
// With a tenant registry configured (Config.Tenants), the server
// additionally authenticates API keys, enforces per-tenant rate limits
// and capacity quotas (429 with a machine-readable code and Retry-After),
// hands global slots out fairly by (priority tier, per-tenant deficit),
// and reports per-tenant activity on /metrics. Without one, every caller
// is the anonymous tenant with no limits and the wire output is
// byte-identical to pre-tenancy builds.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/rf"
	"repro/rf/api"
)

// Config configures a Server. The zero value is usable: GOMAXPROCS
// global workers, an in-memory cache, real simulations.
type Config struct {
	// Cache backs the shared runner, usually a store.NewTiers stack
	// (memory, local disk, remote and peer tiers); its per-tier counters
	// are exported on /metrics (rfserved_store_tier_*) when it has a
	// Stats() store.TierStats method. Nil uses a fresh MemCache (results
	// die with the process).
	Cache sweep.Cache
	// Simulate overrides the simulation function (tests); nil runs the
	// real simulator.
	Simulate func(sweep.Job) sim.Result
	// Dispatcher, when non-nil, turns the server into a fleet
	// coordinator: jobs execute on registered remote workers (see
	// internal/dispatch) instead of locally, the /v1/workers endpoints
	// are mounted, and the dispatcher is closed by Shutdown. Simulate is
	// then only used as documentation — the dispatcher's own Fallback
	// covers local execution.
	Dispatcher *dispatch.Coordinator
	// MaxWorkers bounds concurrent simulations across all sweeps; 0 uses
	// GOMAXPROCS — except in coordinator mode, where a "simulation" is a
	// blocked wait on the fleet and the default is max(256, GOMAXPROCS)
	// so the fan-out is not throttled to local core count.
	MaxWorkers int
	// MaxSweepWorkers caps any single sweep's worker budget (a spec may
	// request less via its parallelism field, never more); 0 uses
	// MaxWorkers.
	MaxSweepWorkers int
	// MaxJobs rejects specs that expand to more jobs than this;
	// 0 means 100000.
	MaxJobs int
	// Objects, when non-nil, serves this node's result store over
	// GET/PUT /v1/objects/{key} — the remote tier other nodes read
	// through and the fleet-peer tier workers advertise. Usually the
	// local disk store's Backend(). Requests are tenant-authenticated
	// and rate-limited exactly like submissions.
	Objects store.Backend
	// Tenants, when non-nil, turns on multi-tenant admission control:
	// API-key authentication, per-tenant rate limits and quotas, and
	// fair-share scheduling. Nil serves every caller as the unlimited
	// anonymous tenant — the pre-tenancy behavior, byte-identical on the
	// wire. The registry can be swapped at runtime with SetTenants (key
	// rotation without restart); this field only seeds the initial one.
	Tenants *tenant.Registry
	// Warehouse, when non-nil, maintains the columnar result index:
	// completed rows are ingested as they publish (next to the journal
	// hook), a sweep's segment seals before its state turns done, and
	// GET/POST /v1/query is mounted over it. Nil (the default) keeps the
	// wire surface and behavior byte-identical to pre-warehouse builds.
	// Sweeps recovered from the journal as already-done are rebuilt into
	// segments from the content-addressed store at startup.
	Warehouse *warehouse.Warehouse
	// Journal, when non-nil, makes sweeps durable: accepted specs,
	// completed rows and terminal states are appended to this WAL, and a
	// restarted server replays it, re-serves finished sweeps, and
	// resumes interrupted ones without re-simulating their journaled
	// rows (see journal.go). Nil (the default) keeps behavior
	// byte-identical to an unjournaled server. The journal must have
	// been freshly opened (its Replay not yet consumed) and is owned by
	// the caller — the server never closes it.
	Journal *wal.WAL
	// Logf reports journal recovery and resume events; nil discards.
	Logf func(format string, args ...any)
}

// maxBodyBytes bounds a submission, query or object upload body.
const maxBodyBytes = 1 << 20

// sweepState is the lifecycle of one submitted sweep.
type sweepState string

const (
	stateRunning  sweepState = "running"
	stateDone     sweepState = "done"
	stateCanceled sweepState = "canceled"
)

// sweepRun holds one submitted sweep: its accepted spec and its
// incrementally filled rows (the job list lives only in execute).
type sweepRun struct {
	id          string
	name        string
	tenant      string // owning tenant's name
	priority    int    // effective scheduling tier
	parallelism int    // effective per-sweep worker budget
	spec        string // the accepted request body verbatim
	cancel      context.CancelFunc

	mu sync.Mutex
	// rows has one entry per job; a row is present once its Key is set.
	rows      []sweep.Row
	completed int
	cached    int
	state     sweepState
	submitted time.Time
	finished  time.Time
	// recovered marks a sweep resumed from the journal after a restart.
	recovered bool
	// canceling records a cancel request the sweep has not settled yet.
	canceling bool
	// notify is closed and replaced whenever rows or state change;
	// streamers wait on it instead of polling.
	notify chan struct{}
}

// tenantCounters is one tenant's admission outcome tally (under
// Server.tmu).
type tenantCounters struct {
	admitted      uint64 // sweeps accepted
	rejected      uint64 // sweeps refused by a capacity quota (429 over_quota)
	throttled     uint64 // requests refused by the rate limiter (429 rate_limited)
	storeRejected uint64 // object PUTs refused by the store byte quota (429 over_quota)
}

// Server is the rfserved HTTP handler plus its sweep scheduler.
type Server struct {
	cfg    Config
	runner *sweep.Runner
	fair   *tenant.FairQueue // global simulation slots, tenant-fair
	mux    *http.ServeMux

	// Admission state. These run in every mode — without a registry all
	// traffic accounts to the anonymous tenant with no limits — so the
	// tenanted and untenanted code paths cannot drift apart.
	limiter    *tenant.Limiter  // per-tenant submit/stream-open pacing
	active     *tenant.Reserver // per-tenant running sweeps
	queued     *tenant.Reserver // per-tenant unresolved jobs
	storeBytes *tenant.Reserver // per-tenant object-store bytes accepted
	tmu        sync.Mutex
	tstats     map[string]*tenantCounters

	// tenants is the live registry, swappable at runtime (SetTenants) for
	// key rotation without restart. Nil means untenanted; a server that
	// starts untenanted stays untenanted (rotation replaces keys, it
	// never turns admission control on or off).
	tenants atomic.Pointer[tenant.Registry]

	ctx    context.Context // canceled by Shutdown; parents every sweep
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	sweeps map[string]*sweepRun
	order  []string
	nextID uint64
	closed bool

	start          time.Time
	jobsCompleted  atomic.Uint64
	jobsFromCache  atomic.Uint64
	simsStarted    atomic.Uint64
	instrsSim      atomic.Uint64
	simNanos       atomic.Int64
	sweepsCanceled atomic.Uint64
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = runtime.GOMAXPROCS(0)
		if cfg.Dispatcher != nil && cfg.MaxWorkers < 256 {
			cfg.MaxWorkers = 256
		}
	}
	if cfg.MaxSweepWorkers <= 0 || cfg.MaxSweepWorkers > cfg.MaxWorkers {
		cfg.MaxSweepWorkers = cfg.MaxWorkers
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 100000
	}
	s := &Server{
		cfg:        cfg,
		fair:       tenant.NewFairQueue(cfg.MaxWorkers),
		limiter:    tenant.NewLimiter(),
		active:     tenant.NewReserver(),
		queued:     tenant.NewReserver(),
		storeBytes: tenant.NewReserver(),
		tstats:     make(map[string]*tenantCounters),
		sweeps:     make(map[string]*sweepRun),
		start:      time.Now(),
	}
	if cfg.Tenants != nil {
		s.tenants.Store(cfg.Tenants)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	simulate := cfg.Simulate
	if simulate == nil {
		simulate = sweep.Simulate
	}
	rcfg := sweep.RunnerConfig{
		Cache: cfg.Cache,
		SimulateContext: func(ctx context.Context, j sweep.Job) sim.Result {
			// The per-sweep pool admitted this job; the global fair queue
			// keeps the sum over all sweeps bounded too, handing freed
			// slots to the waiting tenant with the highest priority tier
			// and the fewest slots already held. ctx carries admission
			// metadata only: the slot wait is deliberately uncancelable
			// (like the plain semaphore it replaced), because the runner
			// caches whatever this function returns — a canceled wait
			// would poison the content-addressed store with a zero result.
			adm, _ := tenant.FromContext(ctx)
			if adm.Tenant == "" {
				adm.Tenant = tenant.Anonymous
			}
			s.fair.Acquire(context.Background(), adm.Tenant, adm.Priority)
			defer s.fair.Release(adm.Tenant)
			s.simsStarted.Add(1)
			if cfg.Dispatcher != nil {
				// The call blocks on the fleet; its wall time is queueing
				// and network, not simulation, so it must not feed the
				// simulation-seconds/throughput metrics.
				res := cfg.Dispatcher.SimulateContext(ctx, j)
				s.instrsSim.Add(res.Instructions)
				return res
			}
			t0 := time.Now()
			res := simulate(j)
			s.simNanos.Add(time.Since(t0).Nanoseconds())
			s.instrsSim.Add(res.Instructions)
			return res
		},
	}
	s.runner = sweep.NewRunner(rcfg)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", handleVersion)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	if d := cfg.Dispatcher; d != nil {
		mux.HandleFunc("POST /v1/workers/register", d.HandleRegister)
		mux.HandleFunc("POST /v1/workers/{id}/poll", d.HandlePoll)
		mux.HandleFunc("GET /v1/workers", d.HandleWorkers)
	}
	if cfg.Objects != nil {
		// GET patterns also serve HEAD (existence probes without the body).
		mux.HandleFunc("GET /v1/objects/{key}", s.handleObjectGet)
		mux.HandleFunc("PUT /v1/objects/{key}", s.handleObjectPut)
	}
	if cfg.Warehouse != nil {
		mux.HandleFunc("GET /v1/query", s.handleQuery)
		mux.HandleFunc("POST /v1/query", s.handleQuery)
	}
	s.mux = mux
	if cfg.Journal != nil {
		if err := s.recoverJournal(); err != nil {
			// An unreadable snapshot loses the pre-crash sweep table but
			// nothing else: the content-addressed store still has every
			// result, so resubmitted sweeps are warm. Degrade to a cold
			// start rather than refuse to serve.
			s.logf("rfserved: journal recovery failed, starting cold: %v", err)
			s.sweeps = make(map[string]*sweepRun)
			s.order = nil
		}
	}
	return s
}

// ServeHTTP dispatches to the API routes. Every response carries the
// X-RF-API-Version header, and a request stamped with a different
// schema version is rejected up front — version negotiation happens
// before any handler runs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
	if h := r.Header.Get(api.VersionHeader); h != "" {
		if v, err := strconv.Atoi(h); err != nil || v != api.Version {
			writeError(w, http.StatusBadRequest,
				"rfserved: API schema version %q not supported (this server speaks %d)",
				h, api.Version)
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// handleVersion serves GET /v1/version: the build and schema versions,
// so clients and scripts can assert compatibility before submitting.
func handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.VersionInfo{Schema: api.Version, Module: rf.ModuleVersion()})
}

// Shutdown stops accepting sweeps, cancels the ones still running, and
// waits for their goroutines (bounded by ctx). In coordinator mode it
// also closes the dispatcher, so jobs blocked on the fleet resolve
// through the local fallback instead of waiting on workers forever.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	if s.cfg.Dispatcher != nil {
		s.cfg.Dispatcher.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStats exposes the shared runner's lifetime hit/miss counts.
func (s *Server) CacheStats() sweep.CacheStats {
	return s.runner.CacheStats()
}

// RunJob executes one job through the server's shared cached runner —
// the execution hook for rfserved worker mode, so jobs leased from a
// coordinator share this process's cache, store, scheduler budget and
// metrics with locally submitted sweeps.
func (s *Server) RunJob(j sweep.Job) sim.Result {
	return s.runner.RunOutcomes([]sweep.Job{j}, 1)[0].Result
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

// writeErrorCode is writeError with a machine-readable code and an
// optional retry hint: retryAfter > 0 sets the Retry-After header
// (whole seconds, rounded up, minimum 1) and the body's retry_after_ms.
func writeErrorCode(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	e := api.Error{Error: fmt.Sprintf(format, args...), Code: code}
	if retryAfter > 0 {
		e.RetryAfterMS = retryAfter.Milliseconds()
		if e.RetryAfterMS <= 0 {
			e.RetryAfterMS = 1
		}
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, e)
}

// tenanted reports whether admission control is live. It reads the
// swappable registry pointer, so every handler observes a SetTenants
// rotation immediately and atomically.
func (s *Server) tenanted() bool { return s.tenants.Load() != nil }

// SetTenants atomically replaces the live tenant registry — the SIGHUP
// key-rotation hook. In-flight requests finish under the registry they
// authenticated against (an open result stream is never torn down), and
// every subsequent request authenticates against the new one. A nil
// registry is ignored: rotation replaces keys, it never turns admission
// control off.
func (s *Server) SetTenants(reg *tenant.Registry) {
	if reg == nil || !s.tenanted() {
		return
	}
	s.tenants.Store(reg)
}

// authTenant resolves the request's tenant. Without a registry every
// caller is the unlimited anonymous tenant and credentials are ignored
// (the pre-tenancy contract). With one, the key comes from the
// X-RF-API-Key header or an Authorization: Bearer credential; an
// unknown key gets a 401 here and nil back.
func (s *Server) authTenant(w http.ResponseWriter, r *http.Request) *tenant.Tenant {
	reg := s.tenants.Load()
	if reg == nil {
		return tenant.Open()
	}
	key := r.Header.Get(api.KeyHeader)
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	tn, ok := reg.Authenticate(key)
	if !ok {
		writeErrorCode(w, http.StatusUnauthorized, api.ErrCodeUnauthenticated, 0,
			"rfserved: unknown API key")
		return nil
	}
	return tn
}

// counters returns the tenant's tally, creating it on first use.
// Callers hold s.tmu only inside this package's helpers; use bump.
func (s *Server) bump(name string, f func(*tenantCounters)) {
	s.tmu.Lock()
	c := s.tstats[name]
	if c == nil {
		c = &tenantCounters{}
		s.tstats[name] = c
	}
	f(c)
	s.tmu.Unlock()
}

// rateLimit applies the tenant's request pacing; false means a 429 has
// been written. Submissions and result-stream opens draw from the same
// bucket: both are client-initiated requests the operator wants paced
// with one knob.
func (s *Server) rateLimit(w http.ResponseWriter, tn *tenant.Tenant) bool {
	ok, wait := s.limiter.Allow(tn.Name, tn.Limits.Rate, tn.Limits.Burst)
	if ok {
		return true
	}
	s.bump(tn.Name, func(c *tenantCounters) { c.throttled++ })
	writeErrorCode(w, http.StatusTooManyRequests, api.ErrCodeRateLimited, wait,
		"rfserved: tenant %q over its request rate (%.3g/s)", tn.Name, tn.Limits.Rate)
	return false
}

// jobCount counts a spec's jobs, before expanding it, and applies the
// server's bounds; a rejection carries its HTTP status. Submission and
// journal replay share it, so no journal can size a row table past
// MaxJobs.
func (s *Server) jobCount(spec *sweep.Spec) (int, int, error) {
	count, err := spec.JobCount()
	switch {
	case err != nil:
		return 0, http.StatusBadRequest, err
	case count == 0:
		return 0, http.StatusBadRequest, errors.New("sweep: spec expands to zero jobs")
	case count >= sweep.MaxJobCount:
		// A saturated count is rejected no matter how generous MaxJobs
		// is: past the saturation point the true expansion is unknown and
		// materializing it is exactly the DoS the pre-count exists to stop.
		return 0, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep: spec expands to at least %d jobs", sweep.MaxJobCount)
	case count > s.cfg.MaxJobs:
		return 0, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep: spec expands to %d jobs, limit is %d", count, s.cfg.MaxJobs)
	}
	return count, 0, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn := s.authTenant(w, r)
	if tn == nil {
		return
	}
	if !s.rateLimit(w, tn) {
		return
	}
	// The body is kept verbatim: the journal and its snapshots carry the
	// accepted bytes, not a re-marshaled spec, so recovery expands
	// exactly the job list this submission did.
	rawSpec, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "sweep: bad spec: %v", err)
		return
	}
	spec, err := sweep.ParseSpec(bytes.NewReader(rawSpec))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, status, err := s.jobCount(spec); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	jobs, err := spec.Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	parallelism := spec.Parallelism
	if parallelism <= 0 || parallelism > s.cfg.MaxSweepWorkers {
		parallelism = s.cfg.MaxSweepWorkers
	}
	// The effective tier is the tenant's, lowered (never raised) by an
	// explicit spec request: asking cannot outrank the plan.
	priority := tn.Priority
	if spec.Priority > 0 && spec.Priority < priority {
		priority = spec.Priority
	}

	// Capacity quotas, taken in a fixed order so a failure releases
	// exactly what was granted: one active-sweep unit, then the sweep's
	// job count against the queued-jobs bound.
	if err := s.active.Acquire(tn.Name, 1, tn.Limits.MaxActive); err != nil {
		s.bump(tn.Name, func(c *tenantCounters) { c.rejected++ })
		writeErrorCode(w, http.StatusTooManyRequests, api.ErrCodeOverQuota, time.Second,
			"rfserved: tenant %q at its concurrent-sweep limit (%d)", tn.Name, tn.Limits.MaxActive)
		return
	}
	if err := s.queued.Acquire(tn.Name, len(jobs), tn.Limits.MaxQueued); err != nil {
		s.active.Release(tn.Name, 1)
		s.bump(tn.Name, func(c *tenantCounters) { c.rejected++ })
		writeErrorCode(w, http.StatusTooManyRequests, api.ErrCodeOverQuota, time.Second,
			"rfserved: tenant %q over its queued-job quota (%d queued, %d more wanted, limit %d)",
			tn.Name, s.queued.Held(tn.Name), len(jobs), tn.Limits.MaxQueued)
		return
	}

	ctx, cancel := context.WithCancel(s.ctx)
	run := &sweepRun{
		name:        spec.Name,
		tenant:      tn.Name,
		priority:    priority,
		parallelism: parallelism,
		spec:        string(rawSpec),
		cancel:      cancel,
		rows:        make([]sweep.Row, len(jobs)),
		state:       stateRunning,
		submitted:   time.Now(),
		notify:      make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		s.queued.Release(tn.Name, len(jobs))
		s.active.Release(tn.Name, 1)
		writeError(w, http.StatusServiceUnavailable, "rfserved: shutting down")
		return
	}
	s.nextID++
	run.id = fmt.Sprintf("s%06d", s.nextID)
	s.sweeps[run.id] = run
	s.order = append(s.order, run.id)
	s.wg.Add(1)
	s.mu.Unlock()

	s.bump(tn.Name, func(c *tenantCounters) { c.admitted++ })
	// Journaled before execution starts and before the ack is written:
	// a sweep the client saw accepted must survive a crash.
	s.journalAppend(srvRec{
		Op: "submit", ID: run.id, Name: run.name, Tenant: run.tenant,
		Pri: run.priority, Par: parallelism, Spec: run.spec,
		Submitted: &run.submitted,
	})
	if s.cfg.Warehouse != nil {
		// Open the sweep's index builder before execution can publish a
		// row; rows then ingest through the seam in execute, right next to
		// the journal hook.
		s.cfg.Warehouse.Begin(run.id, run.name, run.tenant, len(jobs))
	}
	go s.execute(ctx, run, jobs)

	ack := api.SubmitResponse{
		Schema: api.Version,
		ID:     run.id, Name: run.name, Jobs: len(jobs),
		StatusURL:  "/v1/sweeps/" + run.id,
		ResultsURL: "/v1/sweeps/" + run.id + "/results",
	}
	if s.tenanted() {
		// Stamped only in tenanted mode so an untenanted server's wire
		// bytes stay exactly as before.
		ack.Tenant = run.tenant
		ack.Priority = run.priority
	}
	writeJSON(w, http.StatusAccepted, ack)
}

// execute runs one sweep to completion (or cancellation) on the shared
// runner, publishing rows as jobs resolve. jobs is the sweep's full
// expansion; it is dropped when execute returns.
func (s *Server) execute(ctx context.Context, run *sweepRun, jobs []sweep.Job) {
	defer s.wg.Done()
	// Resume-aware job selection: run only the jobs with no completed
	// row, reporting progress under each job's original index. For a
	// fresh sweep this is the identity mapping; for a recovered one it
	// is exactly the work the crash interrupted.
	run.mu.Lock()
	remap := make([]int, 0, len(jobs))
	todo := make([]sweep.Job, 0, len(jobs))
	for i := range jobs {
		if run.rows[i].Key == "" {
			remap = append(remap, i)
			todo = append(todo, jobs[i])
		}
	}
	run.mu.Unlock()
	doneHere := 0
	// The admission metadata rides the batch context into the runner's
	// SimulateContext hook (fair queue) and, in coordinator mode, the
	// dispatcher's priority queue.
	ctx = tenant.NewContext(ctx, tenant.Admission{Tenant: run.tenant, Priority: run.priority})
	_, err := s.runner.RunOutcomesContext(ctx, todo, run.parallelism, func(p sweep.Progress) {
		idx := remap[p.Index]
		row := sweep.RowOf(p.Job, sweep.Outcome{Result: p.Result, Key: p.Key, Cached: p.Cached})
		// Journaled before publishing: a row a client may have streamed
		// must survive the crash that follows it.
		s.journalAppend(srvRec{Op: "row", ID: run.id, Index: idx, Row: &row})
		run.mu.Lock()
		run.setRowLocked(idx, row)
		doneHere++
		run.wakeLocked()
		run.mu.Unlock()
		if s.cfg.Warehouse != nil {
			// The warehouse ingest seam sits beside the journal hook: the
			// row is indexed under its job-expansion index, so the sealed
			// segment's order never depends on completion order.
			s.cfg.Warehouse.Add(run.id, idx, p.Job, row)
		}
		s.jobsCompleted.Add(1)
		if p.Cached {
			s.jobsFromCache.Add(1)
		}
		s.queued.Release(run.tenant, 1)
	})

	// Index before the state flip below ends every results stream: a
	// client that has read a done sweep's stream to the end can query it.
	if wh := s.cfg.Warehouse; wh != nil {
		if err == nil {
			// Seal logs and counts its own failures; a sweep that cannot
			// seal stays unindexed and is rebuilt from the store next start.
			wh.Seal(run.id)
		} else {
			wh.Discard(run.id)
		}
	}
	run.mu.Lock()
	if err == nil {
		run.state = stateDone
	} else {
		run.state = stateCanceled
		s.sweepsCanceled.Add(1)
	}
	finished := time.Now()
	run.finished = finished
	end := srvRec{Op: "end", ID: run.id, State: string(run.state),
		Finished: &finished, Recovered: run.recovered}
	skipped := len(todo) - doneHere
	run.wakeLocked()
	run.mu.Unlock()
	s.journalAppend(end)
	s.queued.Release(run.tenant, skipped) // jobs skipped by cancellation
	s.active.Release(run.tenant, 1)
	run.cancel() // release the context regardless of how the sweep ended
}

// setRowLocked records the row of job i; run.mu must be held (or the
// run not yet shared).
func (r *sweepRun) setRowLocked(i int, row sweep.Row) {
	if r.rows[i].Key == "" {
		r.completed++
		if row.Cached {
			r.cached++
		}
	}
	r.rows[i] = row
}

// wakeLocked signals streamers; run.mu must be held.
func (r *sweepRun) wakeLocked() {
	close(r.notify)
	r.notify = make(chan struct{})
}

// status renders the wire status document; stamped adds the tenancy
// fields (only servers with a registry stamp them, keeping untenanted
// wire bytes unchanged).
func (r *sweepRun) status(stamped bool) api.SweepStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := api.SweepStatus{
		Schema: api.Version,
		ID:     r.id, Name: r.name, State: string(r.state),
		Total: len(r.rows), Completed: r.completed, Cached: r.cached,
		Simulated:  r.completed - r.cached,
		Submitted:  r.submitted.UTC().Format(time.RFC3339Nano),
		ResultsURL: "/v1/sweeps/" + r.id + "/results",
	}
	if !r.finished.IsZero() {
		st.Finished = r.finished.UTC().Format(time.RFC3339Nano)
	}
	// Only ever true for journaled servers, and omitted from the wire
	// when false, so unjournaled status bytes are unchanged.
	st.Recovered = r.recovered
	if stamped {
		st.Tenant = r.tenant
		st.Priority = r.priority
	}
	return st
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *sweepRun {
	id := r.PathValue("id")
	s.mu.Lock()
	run := s.sweeps[id]
	s.mu.Unlock()
	if run == nil {
		writeError(w, http.StatusNotFound, "rfserved: no sweep %q", id)
	}
	return run
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	writeJSON(w, http.StatusOK, run.status(s.tenanted()))
}

// runs returns every sweep in submission order.
func (s *Server) runs() []*sweepRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := make([]*sweepRun, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.sweeps[id])
	}
	return runs
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	out := api.SweepList{Sweeps: []api.SweepStatus{}}
	for _, run := range s.runs() {
		out.Sweeps = append(out.Sweeps, run.status(s.tenanted()))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	// Cancellation mutates another tenant's sweep, so in tenanted mode it
	// demands ownership (status and listing stay open — they expose
	// metadata, not result payloads, and operators' dashboards rely on
	// them). The anonymous tenant is deliberately one shared identity:
	// every keyless caller collectively owns every anonymous sweep, for
	// cancellation as for result streaming, so a deployment that wants
	// isolation between unauthenticated users must issue keys instead.
	if s.tenanted() {
		tn := s.authTenant(w, r)
		if tn == nil {
			return
		}
		if run.tenant != tn.Name {
			writeErrorCode(w, http.StatusForbidden, api.ErrCodeForbidden, 0,
				"rfserved: sweep %s belongs to tenant %q", run.id, run.tenant)
			return
		}
	}
	// Journaled before the cancel takes effect: if the server dies before
	// execute settles the terminal state, recovery must not resume the
	// sweep the client was told is being canceled.
	s.journalAppend(srvRec{Op: "cancel", ID: run.id})
	run.mu.Lock()
	run.canceling = true
	run.mu.Unlock()
	run.cancel()
	writeJSON(w, http.StatusAccepted, run.status(s.tenanted()))
}

// handleObjectGet serves GET /v1/objects/{key}: one stored result from
// this node's local store tier, for remote read-through and fleet-peer
// fetches. A miss is a clean 404 — the reading tier falls through, it
// does not error. Requests are authenticated and rate-limited like
// submissions, so a tenanted deployment's quotas also govern its
// object traffic.
func (s *Server) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	tn := s.authTenant(w, r)
	if tn == nil {
		return
	}
	if !s.rateLimit(w, tn) {
		return
	}
	k := sweep.Key(r.PathValue("key"))
	if !store.ValidKey(k) {
		writeError(w, http.StatusBadRequest, "rfserved: malformed object key %q", k)
		return
	}
	res, ok, err := s.cfg.Objects.Get(r.Context(), k)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rfserved: object read failed: %v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "rfserved: no object %.8s", string(k))
		return
	}
	writeJSON(w, http.StatusOK, api.Object{Key: string(k), Result: res})
}

// handleObjectPut serves PUT /v1/objects/{key}: write-behind
// replication from another node's store. The body's embedded key must
// match the path — the same entry-embeds-key check the disk format
// enforces — so a misrouted or corrupt upload is rejected, never
// stored under a wrong name.
func (s *Server) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	tn := s.authTenant(w, r)
	if tn == nil {
		return
	}
	if !s.rateLimit(w, tn) {
		return
	}
	k := sweep.Key(r.PathValue("key"))
	if !store.ValidKey(k) {
		writeError(w, http.StatusBadRequest, "rfserved: malformed object key %q", k)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "rfserved: bad object body: %v", err)
		return
	}
	var obj api.Object
	if err := json.Unmarshal(body, &obj); err != nil {
		writeError(w, http.StatusBadRequest, "rfserved: bad object body: %v", err)
		return
	}
	if obj.Key != string(k) {
		writeError(w, http.StatusBadRequest,
			"rfserved: object body key %.8s does not match path key %.8s", obj.Key, string(k))
		return
	}
	// Byte quota on the accepted body, reserved before the write so a
	// failure stores nothing. Accounting is lifetime-accepted bytes per
	// tenant (re-uploads and later evictions included), which is the
	// bound an operator can reason about without trusting dedup.
	if err := s.storeBytes.Acquire(tn.Name, len(body), int(tn.Limits.MaxStoreBytes)); err != nil {
		s.bump(tn.Name, func(c *tenantCounters) { c.storeRejected++ })
		writeErrorCode(w, http.StatusTooManyRequests, api.ErrCodeOverQuota, 0,
			"rfserved: tenant %q over its result-store byte quota (%d bytes held, %d wanted, limit %d)",
			tn.Name, s.storeBytes.Held(tn.Name), len(body), tn.Limits.MaxStoreBytes)
		return
	}
	if err := s.cfg.Objects.Put(r.Context(), k, obj.Result); err != nil {
		s.storeBytes.Release(tn.Name, len(body))
		writeError(w, http.StatusInternalServerError, "rfserved: object write failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleResults streams the sweep's rows as NDJSON in job order,
// emitting each row as soon as it (and every row before it) resolves.
// The stream ends when the sweep finishes or is canceled, or when the
// client disconnects (the request context governs the stream, not the
// sweep: disconnecting a streamer never cancels the simulations).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	// Stream opens are paced by the same bucket as submissions: each open
	// pins a connection and replays every row, so an unpaced reconnect
	// loop is as costly as a submit loop.
	tn := s.authTenant(w, r)
	if tn == nil {
		return
	}
	if !s.rateLimit(w, tn) {
		return
	}
	// The stream is the sweep's payload, so in tenanted mode it demands
	// ownership exactly as cancellation does: sweep IDs are sequential
	// and listable, so isolation must never rest on their secrecy. (The
	// anonymous tenant is one shared identity — see handleCancel.)
	if s.tenanted() && run.tenant != tn.Name {
		writeErrorCode(w, http.StatusForbidden, api.ErrCodeForbidden, 0,
			"rfserved: sweep %s belongs to tenant %q", run.id, run.tenant)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)

	next := 0
	var batch []sweep.Row
	for {
		run.mu.Lock()
		batch = batch[:0]
		for next < len(run.rows) && run.rows[next].Key != "" {
			batch = append(batch, run.rows[next])
			next++
		}
		state := run.state
		notify := run.notify
		// A terminal sweep delivers everything it has: a cancellation can
		// leave gaps (skipped jobs between completed ones), and rows past
		// a gap must still reach the client. While running, emission stays
		// strictly in-order so a completed sweep's stream is byte-identical
		// to rfbatch output.
		if state != stateRunning {
			for _, row := range run.rows[next:] {
				if row.Key != "" {
					batch = append(batch, row)
				}
			}
			next = len(run.rows)
		}
		run.mu.Unlock()
		for _, row := range batch {
			if err := sweep.WriteRow(w, row); err != nil {
				return
			}
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		// Close only on a terminal state, never merely because every row
		// has been delivered: the state flips moments after the last
		// progress event, and a client that checks status the instant the
		// stream ends must never observe "running" on a finished sweep.
		if state != stateRunning {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics renders Prometheus-style text exposition: throughput
// (jobs, simulated instructions, wall-clock simulation seconds), cache
// effectiveness, and scheduler queue depth.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	total := len(s.sweeps)
	s.mu.Unlock()
	// The tenant reservers hold one active unit per running sweep and
	// one queued unit per unresolved job, so the totals are their sums.
	activeSnap := s.active.Snapshot()
	queuedSnap := s.queued.Snapshot()
	active, queueDepth := 0, 0
	for _, n := range activeSnap {
		active += n
	}
	for _, n := range queuedSnap {
		queueDepth += n
	}

	cache := s.runner.CacheStats()
	hitRate := 0.0
	if n := cache.Hits + cache.Misses; n > 0 {
		hitRate = float64(cache.Hits) / float64(n)
	}
	simSecs := float64(s.simNanos.Load()) / 1e9
	throughput := 0.0
	if simSecs > 0 {
		throughput = float64(s.instrsSim.Load()) / simSecs
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := func(name string, value any, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n%s %v\n", name, help, name, value)
	}
	m("rfserved_uptime_seconds", fmt.Sprintf("%.3f", time.Since(s.start).Seconds()),
		"seconds since the server started")
	m("rfserved_sweeps_total", total, "sweeps submitted since start")
	m("rfserved_sweeps_active", active, "sweeps currently running")
	m("rfserved_sweeps_canceled_total", s.sweepsCanceled.Load(), "sweeps canceled before completion")
	m("rfserved_jobs_completed_total", s.jobsCompleted.Load(), "jobs resolved (simulated or cached)")
	m("rfserved_jobs_cached_total", s.jobsFromCache.Load(), "jobs served without simulating")
	m("rfserved_simulations_started_total", s.simsStarted.Load(), "simulations actually executed")
	m("rfserved_queue_depth", queueDepth, "jobs submitted but not yet resolved")
	m("rfserved_cache_hits_total", cache.Hits, "runner cache hits since start")
	m("rfserved_cache_misses_total", cache.Misses, "runner cache misses since start")
	m("rfserved_cache_hit_rate", fmt.Sprintf("%.6f", hitRate), "hits / (hits + misses)")
	m("rfserved_instructions_simulated_total", s.instrsSim.Load(), "dynamic instructions simulated")
	m("rfserved_simulation_seconds_total", fmt.Sprintf("%.3f", simSecs), "cumulative wall-clock seconds inside the simulator")
	m("rfserved_instructions_per_second", fmt.Sprintf("%.0f", throughput), "simulation throughput (instructions / simulation second)")

	if d := s.cfg.Dispatcher; d != nil {
		ds := d.Stats()
		m("rfserved_dispatch_workers", ds.Workers, "workers currently registered")
		m("rfserved_dispatch_tasks_pending", ds.Pending, "tasks queued for the fleet")
		m("rfserved_dispatch_tasks_inflight", ds.Inflight, "tasks leased to workers")
		m("rfserved_dispatch_leases_total", ds.Dispatched, "job leases handed out (including retries)")
		m("rfserved_dispatch_results_total", ds.Completed, "results accepted from workers")
		m("rfserved_dispatch_requeues_total", ds.Requeued, "leases expired and requeued")
		m("rfserved_dispatch_fallbacks_total", ds.Fallbacks, "tasks simulated locally after exhausting remote attempts")
		m("rfserved_dispatch_workers_expired_total", ds.Expired, "workers deregistered for missing their lease")
		m("rfserved_dispatch_tasks_adopted_total", ds.Adopted, "in-flight leases re-adopted after a coordinator restart")
	}

	// Local store occupancy plus tier-stack read-through activity; absent
	// on servers without a store / tier stack, keeping their exposition
	// bytes unchanged.
	if s.cfg.Objects != nil {
		m("rfserved_store_objects", s.cfg.Objects.Len(), "objects resident in the local store tier")
		m("rfserved_store_bytes", s.cfg.Objects.SizeBytes(), "bytes resident in the local store tier")
	}
	if tc, ok := s.cfg.Cache.(interface{ Stats() store.TierStats }); ok {
		ts := tc.Stats()
		tiers := make([]string, 0, len(ts.Hits))
		for name := range ts.Hits {
			tiers = append(tiers, name)
		}
		sort.Strings(tiers)
		fmt.Fprintf(w, "# HELP rfserved_store_tier_hits cache hits per store tier\n")
		for _, name := range tiers {
			fmt.Fprintf(w, "rfserved_store_tier_hits{tier=%q} %d\n", name, ts.Hits[name])
		}
		m("rfserved_store_tier_misses", ts.Misses, "read-throughs that missed every tier and fell back to simulation")
		m("rfserved_store_hedged_fetches", ts.HedgedFetches, "secondary fetches fired past the hedge latency budget")
		m("rfserved_store_hedge_wins", ts.HedgeWins, "reads won by a hedged fetch")
		m("rfserved_store_remote_errors", ts.RemoteErrors, "failed remote store operations (fetch or replicate)")
	}

	// Journal activity, one labeled row per WAL the server holds: its own
	// journal and the warehouse's segment log. Absent entirely when the
	// server has neither.
	type journal struct {
		name string
		log  *wal.WAL
		st   wal.Stats
	}
	var journals []journal
	if s.cfg.Journal != nil {
		journals = append(journals, journal{"server", s.cfg.Journal, s.cfg.Journal.Stats()})
	}
	if s.cfg.Warehouse != nil {
		log := s.cfg.Warehouse.WAL()
		journals = append(journals, journal{"warehouse", log, log.Stats()})
	}
	if len(journals) > 0 {
		walRow := func(family, help string, value func(journal) any) {
			fmt.Fprintf(w, "# HELP %s %s\n", family, help)
			for _, j := range journals {
				fmt.Fprintf(w, "%s{journal=%q} %v\n", family, j.name, value(j))
			}
		}
		walRow("rfserved_wal_appends_total", "records appended to the journal",
			func(j journal) any { return j.st.Appends })
		walRow("rfserved_wal_append_errors_total", "journal append failures",
			func(j journal) any { return j.st.AppendErrors })
		walRow("rfserved_wal_fsyncs_total", "group-commit fsync batches",
			func(j journal) any { return j.st.Fsyncs })
		walRow("rfserved_wal_replayed_records", "records replayed at the last startup",
			func(j journal) any { return j.st.Replayed })
		walRow("rfserved_wal_replay_seconds", "wall-clock seconds the last replay took",
			func(j journal) any { return fmt.Sprintf("%.6f", j.st.ReplayDuration.Seconds()) })
		walRow("rfserved_wal_truncated_bytes_total", "torn-tail bytes discarded during recovery",
			func(j journal) any { return j.st.TruncatedBytes })
		walRow("rfserved_wal_compactions_total", "snapshot compactions since start",
			func(j journal) any { return j.st.Compactions })
		walRow("rfserved_wal_size_bytes", "live journal bytes on disk",
			func(j journal) any { return j.log.SizeBytes() })
		walRow("rfserved_wal_sync_errors_total", "failed fsyncs; the first poisons the journal",
			func(j journal) any { return j.st.SyncErrors })
	}

	// Warehouse index occupancy and query activity; absent entirely on
	// servers without -warehouse-dir, keeping their exposition unchanged.
	if s.cfg.Warehouse != nil {
		ws := s.cfg.Warehouse.Stats()
		m("rfserved_warehouse_segments", ws.Segments, "sealed sweep segments in the warehouse")
		m("rfserved_warehouse_rows", ws.Rows, "rows across all sealed segments")
		m("rfserved_warehouse_bytes", ws.Bytes, "encoded bytes of all sealed segments")
		m("rfserved_warehouse_queries_total", ws.Queries, "queries served by /v1/query")
		m("rfserved_warehouse_query_seconds_total", fmt.Sprintf("%.6f", ws.QuerySeconds),
			"cumulative seconds spent evaluating queries")
		m("rfserved_warehouse_query_segments_total", ws.QuerySegments,
			"segments scanned by queries (a repeated query scans only those sealed since it last ran)")
		m("rfserved_warehouse_ingest_errors_total", ws.IngestErrors,
			"rows or sweeps the warehouse failed to index (rebuild candidates, not data loss)")
	}

	// Per-tenant admission activity, one labeled row per tenant that has
	// done anything since start. Untenanted deployments account all
	// traffic to "anonymous", so these families appear there too.
	storeSnap := s.storeBytes.Snapshot()
	s.tmu.Lock()
	counters := make(map[string]tenantCounters, len(s.tstats))
	for name, c := range s.tstats {
		counters[name] = *c
	}
	s.tmu.Unlock()
	seen := make(map[string]bool)
	for name := range counters {
		seen[name] = true
	}
	for name := range activeSnap {
		seen[name] = true
	}
	for name := range queuedSnap {
		seen[name] = true
	}
	for name := range storeSnap {
		seen[name] = true
	}
	if len(seen) == 0 {
		return
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	labeled := func(family, help string, value func(string) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n", family, help)
		for _, name := range names {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", family, name, value(name))
		}
	}
	labeled("rfserved_tenant_active_sweeps", "sweeps running right now, per tenant",
		func(n string) uint64 { return uint64(activeSnap[n]) })
	labeled("rfserved_tenant_queued_jobs", "jobs submitted but not yet resolved, per tenant",
		func(n string) uint64 { return uint64(queuedSnap[n]) })
	labeled("rfserved_tenant_admitted_total", "sweeps admitted since start, per tenant",
		func(n string) uint64 { return counters[n].admitted })
	labeled("rfserved_tenant_rejected_total", "sweeps refused by a capacity quota since start, per tenant",
		func(n string) uint64 { return counters[n].rejected })
	labeled("rfserved_tenant_throttled_total", "requests refused by the rate limiter since start, per tenant",
		func(n string) uint64 { return counters[n].throttled })
	labeled("rfserved_tenant_store_bytes", "result-store bytes accepted since start, per tenant",
		func(n string) uint64 { return uint64(storeSnap[n]) })
	labeled("rfserved_tenant_store_rejected_total", "object uploads refused by the store byte quota since start, per tenant",
		func(n string) uint64 { return counters[n].storeRejected })
}
