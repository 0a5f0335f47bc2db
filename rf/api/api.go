// Package api defines the versioned wire schema of the rfserved HTTP
// service: the JSON documents exchanged by submissions, status polls,
// the worker fleet protocol, and the /v1/version endpoint. rf/client,
// internal/server and internal/dispatch all marshal these exact types,
// so the three cannot drift apart.
//
// Versioning: every document that acknowledges a request carries
// "schema" (the spec/wire schema version, Version), and every HTTP
// exchange may negotiate it via the X-RF-API-Version request/response
// header (VersionHeader). A server rejects a mismatched client with
// 400 and an Error body; a client surfaces a mismatched server as a
// typed error (rf/client.ErrVersionMismatch).
//
// The result rows streamed by /v1/sweeps/{id}/results are NDJSON-encoded
// sweep.Row values (rf.Row) — deliberately unstamped, so the stream
// stays byte-identical to local rfbatch output.
package api

import (
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Version is the wire schema version spoken by this build.
const Version = sweep.SchemaVersion

// VersionHeader is the HTTP header carrying the schema version on
// requests (what the client speaks) and responses (what the server
// speaks).
const VersionHeader = "X-RF-API-Version"

// KeyHeader is the HTTP header carrying the caller's API key. A server
// without a tenant registry ignores it; a server with one also accepts
// the key as an "Authorization: Bearer" credential.
const KeyHeader = "X-RF-API-Key"

// Machine-readable codes carried by Error.Code on admission failures.
const (
	// ErrCodeUnauthenticated marks a 401: the presented API key is not
	// registered.
	ErrCodeUnauthenticated = "unauthenticated"
	// ErrCodeForbidden marks a 403: the key is valid but the resource
	// belongs to another tenant.
	ErrCodeForbidden = "forbidden"
	// ErrCodeRateLimited marks a 429 from the per-tenant request rate
	// limiter; retry after Error.RetryAfterMS.
	ErrCodeRateLimited = "rate_limited"
	// ErrCodeOverQuota marks a 429 from a per-tenant capacity bound
	// (concurrent sweeps or queued jobs); retry once earlier work drains.
	ErrCodeOverQuota = "over_quota"
)

// Error is the JSON body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
	// Code, when present, classifies the failure machine-readably (the
	// ErrCode constants). Absent on plain validation errors.
	Code string `json:"code,omitempty"`
	// RetryAfterMS, on 429 responses, is how long the caller should wait
	// before retrying. The same hint rides the Retry-After header in
	// whole seconds; this field keeps the sub-second precision.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// SubmitResponse acknowledges POST /v1/sweeps.
type SubmitResponse struct {
	Schema     int    `json:"schema"`
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	Jobs       int    `json:"jobs"`
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
	// Tenant and Priority report who the sweep was admitted as and at
	// which scheduling tier. Stamped only by servers with a tenant
	// registry, so untenanted deployments keep their exact wire bytes.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// SweepStatus is the status document of one sweep
// (GET /v1/sweeps/{id}, and the acknowledgment of DELETE).
type SweepStatus struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	// State is running, done or canceled.
	State string `json:"state"`
	// Total, Completed, Cached and Simulated count jobs; Simulated is
	// Completed minus Cached. A canceled sweep's skipped jobs are
	// Total - Completed.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
	// Submitted and Finished are RFC 3339 timestamps; Finished is empty
	// while the sweep runs.
	Submitted  string `json:"submitted"`
	Finished   string `json:"finished,omitempty"`
	ResultsURL string `json:"results_url"`
	// Tenant and Priority mirror the SubmitResponse fields; present only
	// on servers with a tenant registry.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Recovered marks a sweep that was resumed from the write-ahead
	// journal after a server restart (rfserved -wal-dir); absent on
	// sweeps that ran uninterrupted, so journal-less deployments keep
	// their exact wire bytes.
	Recovered bool `json:"recovered,omitempty"`
}

// SweepList is the body of GET /v1/sweeps.
type SweepList struct {
	Sweeps []SweepStatus `json:"sweeps"`
}

// VersionInfo is the body of GET /v1/version.
type VersionInfo struct {
	// Schema is the wire/spec schema version the server speaks.
	Schema int `json:"schema"`
	// Module is the server's module build version.
	Module string `json:"module"`
}

// Query ops understood by POST/GET /v1/query (Query.Op).
const (
	// QueryOpRows pages the matching rows themselves (cursor-paginated).
	QueryOpRows = "rows"
	// QueryOpAggregate groups matching rows and reduces metrics per group.
	QueryOpAggregate = "aggregate"
	// QueryOpPareto extracts the (area, IPC) Pareto frontier over the
	// matching architectures.
	QueryOpPareto = "pareto"
	// QueryOpSeries extracts per-architecture benchmark IPC series with
	// suite harmonic means — enough to render the paper's Figure 6
	// server-side.
	QueryOpSeries = "series"
)

// QueryMetric names one reduction inside an aggregate query: an operator
// (sum, mean, min, max) applied to a row metric (ipc, cycles,
// instructions, mispredict_rate, icache_miss_rate, dcache_miss_rate,
// area).
type QueryMetric struct {
	Op     string `json:"op"`
	Metric string `json:"metric"`
}

// Query is the versioned query document of GET/POST /v1/query. POST
// carries it as the request body; GET carries the same JSON URL-encoded
// in the q parameter. Empty filter lists match everything; filters
// compose conjunctively (a row must match every non-empty filter).
type Query struct {
	// Schema is the wire schema version; 0 (absent) means Version.
	Schema int `json:"schema,omitempty"`
	// Op selects the query shape (the QueryOp constants); default rows.
	Op string `json:"op,omitempty"`
	// Sweep restricts the query to one sweep id ("" = every sweep the
	// caller may see).
	Sweep string `json:"sweep,omitempty"`
	// Benchmarks, Archs and Families filter rows by exact benchmark name,
	// architecture display name, and register file family (the
	// rf.Families registry names: 1cycle, rfcache, ...).
	Benchmarks []string `json:"benchmarks,omitempty"`
	Archs      []string `json:"archs,omitempty"`
	Families   []string `json:"families,omitempty"`
	// Dims filters on integer architecture dimensions, keyed by the sweep
	// matrix vocabulary: read_ports, write_ports, buses, upper_sizes,
	// banks, clusters, phys_regs. A value of 0 matches unlimited ports,
	// mirroring the spec convention.
	Dims map[string][]int `json:"dims,omitempty"`
	// GroupBy names the aggregate grouping columns, in key order:
	// benchmark, arch, family, suite, sweep. Empty aggregates everything
	// into one group.
	GroupBy []string `json:"group_by,omitempty"`
	// Metrics lists the aggregate reductions; empty means mean ipc.
	Metrics []QueryMetric `json:"metrics,omitempty"`
	// Limit bounds one rows page (default 1000, max 10000); other ops
	// ignore it.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a rows query from a previous page's NextCursor.
	Cursor string `json:"cursor,omitempty"`
}

// QueryRow is one matched row in a rows-query page: the streamed NDJSON
// row fields plus the warehouse's derived columns (owning sweep, family,
// suite, modeled area). The transport-level cached flag is deliberately
// absent — the warehouse indexes results, not delivery provenance, so a
// rebuilt index answers byte-identically.
type QueryRow struct {
	Sweep        string  `json:"sweep"`
	Benchmark    string  `json:"benchmark"`
	Arch         string  `json:"arch"`
	Family       string  `json:"family"`
	FP           bool    `json:"fp,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	MispredRate  float64 `json:"mispredict_rate"`
	ICacheMiss   float64 `json:"icache_miss_rate"`
	DCacheMiss   float64 `json:"dcache_miss_rate"`
	// Area is the modeled register file area in the paper's 10⁴λ² unit;
	// 0 when the configuration has unbounded ports (area is unmodeled).
	Area float64 `json:"area,omitempty"`
	Key  string  `json:"key"`
}

// QueryGroup is one aggregate bucket: its group-by key values (parallel
// to Query.GroupBy), the row count, and one value per requested metric
// named "op_metric" (e.g. "mean_ipc").
type QueryGroup struct {
	Key    []string           `json:"key"`
	Count  int                `json:"count"`
	Values map[string]float64 `json:"values"`
}

// SeriesPoint is one benchmark's mean IPC inside a series.
type SeriesPoint struct {
	Benchmark string  `json:"benchmark"`
	IPC       float64 `json:"ipc"`
}

// QuerySeries is one architecture's figure series: per-benchmark mean
// IPC in suite order (SPECint95 then SPECfp95), with the suite harmonic
// means the paper's Figure 6 plots. A suite mean is 0 when the filter
// matched no benchmark of that suite.
type QuerySeries struct {
	Arch     string        `json:"arch"`
	Points   []SeriesPoint `json:"points"`
	IntHmean float64       `json:"int_hmean,omitempty"`
	FPHmean  float64       `json:"fp_hmean,omitempty"`
}

// ParetoPoint is one non-dominated architecture on the (area, IPC)
// frontier, area ascending.
type ParetoPoint struct {
	Arch string  `json:"arch"`
	IPC  float64 `json:"ipc"`
	Area float64 `json:"area"`
}

// QueryResult is the body of a successful /v1/query response. Matched
// counts every row passing the filters, independent of pagination; only
// the field matching Op is populated.
type QueryResult struct {
	Schema  int    `json:"schema"`
	Op      string `json:"op"`
	Matched int    `json:"matched"`
	// Rows is one page of a rows query; NextCursor resumes the next page
	// and is empty on the last one.
	Rows       []QueryRow    `json:"rows,omitempty"`
	Groups     []QueryGroup  `json:"groups,omitempty"`
	Series     []QuerySeries `json:"series,omitempty"`
	Frontier   []ParetoPoint `json:"frontier,omitempty"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// Object is the wire document of GET/PUT /v1/objects/{key}: one stored
// sweep result with its content key embedded. The embedded key mirrors
// the on-disk entry format — a reader verifies it against the key it
// asked for, so a truncated, foreign, or misrouted document degrades to
// a miss instead of serving a wrong result.
type Object struct {
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// RegisterRequest is the body of POST /v1/workers/register.
type RegisterRequest struct {
	// Name labels the worker in listings (defaults to its id).
	Name string `json:"name,omitempty"`
	// Capacity is the worker's in-flight budget: the most jobs it may
	// hold leases on at once. Clamped to [1, the coordinator's
	// MaxCapacity].
	Capacity int `json:"capacity"`
	// ObjectsURL, when set, is the base URL where this worker serves its
	// local result store over GET /v1/objects/{key}. The coordinator
	// routes store misses to advertising workers by shard ownership.
	ObjectsURL string `json:"objects_url,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	ID string `json:"id"`
	// Capacity is the granted in-flight budget — the request's capacity
	// clamped to the coordinator's MaxCapacity. The worker must budget
	// against this value, not the one it asked for.
	Capacity int `json:"capacity"`
	// LeaseMS is the lease TTL: poll at least this often.
	LeaseMS int64 `json:"lease_ms"`
	// PollMS is how long an idle poll may be held open server-side.
	PollMS int64 `json:"poll_ms"`
	// StoreShards announces the coordinator's shard-bucket count for
	// store inventory. Workers advertise the shards their local store
	// holds (PollRequest.StoreShards) in this modulus; 0 means the
	// fleet-peer store tier is off.
	StoreShards int `json:"store_shards,omitempty"`
}

// TaskResult reports one finished job, by its content key, inside a poll
// request.
type TaskResult struct {
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// Assignment hands one job, named by its content key, to a worker inside
// a poll response.
type Assignment struct {
	Key string    `json:"key"`
	Job sweep.Job `json:"job"`
}

// PollRequest is the body of POST /v1/workers/{id}/poll: completed
// results to report plus how many new jobs the worker wants.
type PollRequest struct {
	Results []TaskResult `json:"results,omitempty"`
	// Holding inventories the content key of every job the worker
	// believes it holds — in-flight simulations plus
	// finished-but-unreported results (Results included). The
	// coordinator requeues any lease absent from it: that assignment
	// traveled in a poll response the worker never received, and would
	// otherwise stay a ghost forever, since the worker's continued
	// polling keeps renewing the lease. A pending job whose key is held
	// is leased back to this worker instead of being scheduled again,
	// which is how a restarted coordinator re-adopts running work.
	Holding []string `json:"holding,omitempty"`
	Want    int      `json:"want"`
	// StoreShards is the full shard inventory of the worker's local
	// result store, in the modulus announced at registration — the
	// buckets holding at least one object. Sent complete on every poll
	// that carries it (the coordinator replaces, not merges), omitted
	// when the worker has no store or nothing resident yet.
	StoreShards []int `json:"store_shards,omitempty"`
}

// PollResponse carries new leases back to the worker.
type PollResponse struct {
	Jobs    []Assignment `json:"jobs"`
	LeaseMS int64        `json:"lease_ms"`
}

// FleetStats is a point-in-time snapshot of coordinator fleet activity
// (embedded in GET /v1/workers and the dispatch metrics).
type FleetStats struct {
	// Workers is the number of currently registered workers.
	Workers int `json:"workers"`
	// Pending and Inflight count live tasks queued / leased right now.
	Pending  int `json:"pending"`
	Inflight int `json:"inflight"`
	// Enqueued counts tasks ever created (deduplicated Simulate calls
	// share a task and count once).
	Enqueued uint64 `json:"enqueued"`
	// Dispatched counts job leases handed out, including retries.
	Dispatched uint64 `json:"dispatched"`
	// Completed counts results accepted from workers.
	Completed uint64 `json:"completed"`
	// Requeued counts leases that expired and went back in the queue.
	Requeued uint64 `json:"requeued"`
	// Fallbacks counts tasks the coordinator simulated locally.
	Fallbacks uint64 `json:"fallbacks"`
	// Late counts results that arrived for unknown or finished tasks.
	Late uint64 `json:"late"`
	// Expired counts workers deregistered for missing their lease.
	Expired uint64 `json:"expired"`
	// Adopted counts live leases handed back to workers that reported
	// holding a key the coordinator believed was pending — the
	// crash-resume path (a restarted coordinator re-adopting the fleet's
	// in-flight work once the server re-submits it) and the
	// expired-but-alive path. Omitted when zero, so a fleet that never
	// adopts keeps its exact wire bytes.
	Adopted uint64 `json:"adopted,omitempty"`
}

// WorkerInfo is one row of GET /v1/workers.
type WorkerInfo struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Capacity   int    `json:"capacity"`
	Inflight   int    `json:"inflight"`
	Completed  uint64 `json:"completed"`
	Registered string `json:"registered"`
	// LeaseExpires is when the worker is deregistered unless it polls.
	LeaseExpires string `json:"lease_expires"`
	// ObjectsURL and StoreShards mirror the worker's store
	// advertisement: where it serves /v1/objects and how many shard
	// buckets of its inventory are populated. Omitted when the worker
	// advertises no store.
	ObjectsURL  string `json:"objects_url,omitempty"`
	StoreShards int    `json:"store_shards,omitempty"`
}

// WorkerList is the body of GET /v1/workers.
type WorkerList struct {
	Workers []WorkerInfo `json:"workers"`
	Stats   FleetStats   `json:"stats"`
}
