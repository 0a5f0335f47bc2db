// Package repro is a from-scratch Go reproduction of "Multiple-Banked
// Register File Architectures" (Cruz, González, Valero, Topham; ISCA 2000).
//
// The public entry point is the rf package — the SDK external consumers
// import:
//
//   - rf — typed simulation configuration (functional options), the
//     architecture-family registry, workload profiles, single runs, and
//     sweep specs/runner, all schema-versioned (rf.SchemaVersion);
//   - rf/client — the Go client for the rfserved HTTP API (submission,
//     NDJSON streaming with mid-stream resume, status, cancel, worker
//     registration, version negotiation);
//   - rf/api — the versioned wire documents shared by client and server;
//   - rf/area — the area/access-time cost model.
//
// The implementation lives under internal/:
//
//   - internal/core — the paper's contribution: the register file cache
//     (two-level multi-banked register file with caching and prefetching
//     policies) plus the single-banked baselines and a one-level
//     multi-banked extension;
//   - internal/sim — the cycle-level 8-way out-of-order processor
//     (Table 1 of the paper) that evaluates them, one job per call;
//   - internal/arch — the architecture-family registry backing rf: one
//     place where each family's name, parameter schema, validator and
//     builder live;
//   - internal/sweep — the experiment orchestration engine: bounded
//     worker pool, pluggable content-addressed result cache, sweep-matrix
//     specs resolved through the registry;
//   - internal/store — the disk-backed result store behind rfbatch
//     -store and rfserved (atomic writes, LRU eviction, corruption
//     tolerance);
//   - internal/server — the rfserved HTTP sweep service;
//   - internal/tenant — multi-tenant admission control for rfserved:
//     API-key authentication, per-tenant rate limits and capacity
//     quotas, and a fair-share simulation-slot queue;
//   - internal/dispatch — coordinator/worker distribution of sweep jobs
//     across an rfserved fleet (lease-based pull protocol, failover
//     requeue, fleet-wide dedup by content address), built on rf/client;
//   - internal/trace — synthetic SPEC95-proxy workloads;
//   - internal/area — the area/access-time cost model calibrated against
//     the paper's Table 2;
//   - internal/experiments — one runner per paper figure and table.
//
// Executables: cmd/rfexp regenerates every figure/table; cmd/rfsim runs a
// single benchmark × architecture simulation (families resolved through
// the rf registry); cmd/rfbatch runs user-defined sweep matrices from a
// JSON spec (locally or, with -remote, on an rfserved fleet through
// rf/client); cmd/rfserved serves sweeps over HTTP with durable results
// and scales out via -dispatch (coordinator) and -join (worker). All
// print their build + schema version with -version. See README.md for
// usage, docs/ARCHITECTURE.md for the end-to-end system map (data flow,
// the NDJSON wire invariant, the fleet lease protocol), and the runnable
// programs under examples/, which compile against the public rf surface
// only.
//
// The benchmarks in bench_test.go regenerate each experiment at a reduced
// instruction budget and report the headline metrics via b.ReportMetric.
package repro
