// Command rfserved serves the sweep engine over HTTP: clients POST JSON
// sweep specifications (the cmd/rfbatch schema), poll status, and stream
// per-job results as NDJSON while jobs complete. Results are memoized in
// a disk-backed content-addressed store, so identical configurations are
// simulated once per store — across sweeps, clients and restarts.
//
// Usage:
//
//	rfserved [-addr host:port] [-addr-file path] [-store dir]
//	         [-store-max-mb n] [-store-remote url,...] [-store-shards n]
//	         [-workers n] [-sweep-workers n] [-max-jobs n] [-wal-dir dir]
//	         [-tenants file] [-default-rate r] [-default-burst n]
//	         [-max-active-per-tenant n] [-max-queued-per-tenant n]
//	         [-max-store-mb-per-tenant n] [-warehouse-dir dir]
//	         [-dispatch [-lease-ms n] [-max-capacity n] [-job-timeout d]]
//	         [-join url [-capacity n] [-worker-name s]]
//
// Quickstart:
//
//	rfserved -addr 127.0.0.1:8090 -store /var/tmp/rfstore &
//	rfbatch -example > spec.json
//	curl -s -X POST --data-binary @spec.json localhost:8090/v1/sweeps
//	curl -s localhost:8090/v1/sweeps/s000001/results   # NDJSON stream
//	curl -s localhost:8090/v1/sweeps/s000001           # status
//	curl -s localhost:8090/metrics                     # throughput, cache, queue
//
// Fleet mode distributes sweeps across machines: one coordinator accepts
// the sweeps, any number of workers execute them.
//
//	rfserved -dispatch -addr :8090 -store /var/tmp/rfstore   # coordinator
//	rfserved -join http://coordinator:8090 -addr :0          # worker (×N)
//
// Multi-tenant mode puts API keys and quotas in front of the service:
//
//	rfserved -tenants tenants.json -default-rate 5 -max-active-per-tenant 2
//
// The tenants file maps API keys (X-RF-API-Key header, or Authorization:
// Bearer) to named tenants with per-tenant rate limits, capacity quotas
// and scheduling priorities; unauthenticated callers become the
// "anonymous" tenant. Over-limit requests get 429 with a Retry-After
// hint, and /metrics grows per-tenant rows. Without -tenants (or any
// -default-* flag) the server behaves exactly as before. SIGHUP
// reloads the -tenants file in place — rotated API keys take effect
// without a restart or any disturbance to running sweeps and open
// result streams. See the README's "Authentication & quotas" section
// for the file format.
//
// With -warehouse-dir the server maintains a columnar index of every
// completed sweep (one segment per sweep) and serves the /v1/query API
// over it: filtered row pages, grouped aggregates, Pareto frontiers
// and figure series computed server-side, so clients render paper
// figures without streaming a single row. The warehouse is never
// authoritative — delete the directory and the next start rebuilds it
// from the content-addressed store. Without the flag, serving is
// byte-identical to previous releases.
//
// The store itself can span the fleet. -store-remote adds remote HTTP
// tiers (other rfserved object APIs, comma-separated) consulted on a
// local miss with hedged fetches; hits are promoted into the local
// store and local writes replicate back asynchronously. On a
// coordinator, -store-shards N turns on the fleet-peer tier: workers
// advertise which key-shard buckets their stores hold on every poll,
// and the coordinator reads misses straight from the owning peers
// before simulating. Either way the NDJSON stream stays byte-identical
// to a single-node run. Outbound tier requests authenticate with
// RF_API_KEY when set.
//
// A coordinator shards each sweep's jobs across registered workers
// (lease-based pull protocol, see internal/dispatch), merges rows back
// in job order, and falls back to simulating locally when a job exhausts
// its remote retries — the NDJSON stream stays byte-identical to a
// single-node run either way. Workers are plain rfserved processes: they
// run leased jobs through their own cached runner (and store, with
// -store) while still serving their own /v1/sweeps API.
//
// With -wal-dir the server journals every sweep transition to a
// write-ahead log in <wal-dir>/server. A crashed or SIGKILLed server
// restarted on the same -wal-dir replays the journal and resumes
// interrupted sweeps where they stopped (completed rows are never
// re-simulated; result streams stay byte-identical). In coordinator mode
// that journal is the only one: the resumed sweeps re-submit their
// unfinished jobs, and workers still simulating one report its content
// key on their next poll, so the coordinator adopts the running lease
// instead of leasing the job again. Without -wal-dir behavior is exactly
// as before: state dies with the process.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// sweeps, cancels running ones, drains store replication, and exits. See
// the README's "rfserved service" section for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/rf"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		storeDir   = flag.String("store", "", "disk-backed result store directory (empty: in-memory only)")
		storeMaxMB = flag.Int64("store-max-mb", 0, "store size cap in MiB before LRU eviction (0: unlimited)")
		storeRem   = flag.String("store-remote", "", "comma-separated rfserved base URLs consulted as remote store tiers on a local miss (hedged; RF_API_KEY authenticates)")
		storeShard = flag.Int("store-shards", 0, "coordinator mode: shard-bucket count for the fleet-peer store tier (0: off); also rendezvous-routes -store-remote tiers per key")
		workers    = flag.Int("workers", 0, "global concurrent-simulation bound (0: GOMAXPROCS; coordinator mode: 256)")
		sweepWork  = flag.Int("sweep-workers", 0, "per-sweep worker budget cap (0: same as -workers)")
		maxJobs    = flag.Int("max-jobs", 0, "reject specs expanding to more jobs than this (0: 100000)")
		walDir     = flag.String("wal-dir", "", "write-ahead-log directory enabling crash-resume (empty: no journal, state dies with the process)")
		tenantsF   = flag.String("tenants", "", "tenants JSON file enabling API-key auth and per-tenant quotas")
		defRate    = flag.Float64("default-rate", 0, "default per-tenant request rate in req/s (0: unlimited)")
		defBurst   = flag.Int("default-burst", 0, "default per-tenant request burst (0: derived from -default-rate)")
		maxActive  = flag.Int("max-active-per-tenant", 0, "default per-tenant concurrent-sweep cap (0: unlimited)")
		maxQueued  = flag.Int("max-queued-per-tenant", 0, "default per-tenant unresolved-job cap (0: unlimited)")
		maxStoreMB = flag.Int64("max-store-mb-per-tenant", 0, "default per-tenant object-upload byte budget in MiB (0: unlimited)")
		warehouseD = flag.String("warehouse-dir", "", "columnar warehouse directory enabling the /v1/query API (empty: off, serving is byte-identical)")
		dispatchF  = flag.Bool("dispatch", false, "coordinator mode: execute sweeps on registered remote workers (/v1/workers API)")
		leaseMS    = flag.Int64("lease-ms", 10000, "coordinator mode: worker lease TTL in milliseconds")
		maxCap     = flag.Int("max-capacity", 0, "coordinator mode: cap on any single worker's in-flight budget (0: 64)")
		jobTimeout = flag.Duration("job-timeout", 0, "coordinator mode: requeue a leased job after this long even if its worker keeps heartbeating (0: never; set only if you know the workload's ceiling)")
		join       = flag.String("join", "", "worker mode: pull and execute jobs from this coordinator URL")
		capacity   = flag.Int("capacity", 0, "worker mode: concurrent leased-job budget (0: GOMAXPROCS)")
		workerName = flag.String("worker-name", "", "worker mode: label reported to the coordinator (default: hostname)")
		version    = flag.Bool("version", false, "print the module version and API schema version, then exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("rfserved %s (schema %d)\n", rf.ModuleVersion(), rf.SchemaVersion)
		return
	}
	if *dispatchF && *join != "" {
		fatal(errors.New("-dispatch and -join are mutually exclusive (a worker cannot also coordinate)"))
	}

	cfg := server.Config{
		MaxWorkers:      *workers,
		MaxSweepWorkers: *sweepWork,
		MaxJobs:         *maxJobs,
	}
	defaults := tenant.Limits{
		Rate: *defRate, Burst: *defBurst,
		MaxActive: *maxActive, MaxQueued: *maxQueued,
		MaxStoreBytes: *maxStoreMB << 20,
	}
	switch {
	case *tenantsF != "":
		reg, err := tenant.LoadFile(*tenantsF, defaults)
		if err != nil {
			fatal(err)
		}
		cfg.Tenants = reg
		fmt.Fprintf(os.Stderr, "rfserved: %d tenants loaded from %s\n", reg.Len(), *tenantsF)
	case defaults != (tenant.Limits{}):
		// Quotas without a key file: every caller is the anonymous tenant,
		// bounded by the defaults.
		cfg.Tenants = tenant.NewRegistry(defaults)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	// The journal opens before the server is built, which replays it
	// during construction and resumes each interrupted sweep by re-running
	// only its unfinished jobs. In coordinator mode that is all a restart
	// needs: the coordinator starts empty, the resumed sweeps re-submit
	// those jobs by content key, and workers that kept running through
	// the outage report the same keys as held, so the coordinator adopts
	// their leases and nothing is simulated twice.
	var serverWAL *wal.WAL
	if *walDir != "" {
		var err error
		serverWAL, err = wal.Open(filepath.Join(*walDir, "server"), wal.Options{})
		if err != nil {
			fatal(err)
		}
		cfg.Journal = serverWAL
		cfg.Logf = logf
		fmt.Fprintf(os.Stderr, "rfserved: journaling to %s\n", *walDir)
	}
	if *dispatchF {
		cfg.Dispatcher = dispatch.NewCoordinator(dispatch.Config{
			LeaseTTL:    time.Duration(*leaseMS) * time.Millisecond,
			MaxCapacity: *maxCap,
			JobTimeout:  *jobTimeout,
			StoreShards: *storeShard,
		})
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMaxMB << 20})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rfserved: store %s (%d entries, %.1f MiB)\n",
			*storeDir, st.Len(), float64(st.SizeBytes())/(1<<20))
		// The object API serves this node's store to the rest of the
		// fleet, behind the same tenant auth as sweep submissions.
		cfg.Objects = st.Backend()
	}
	// Assemble the result cache: memory, then the local store (if any),
	// then the fleet-peer tier (coordinator mode with sharding on), then
	// any explicit remotes.
	ropts := store.RemoteOptions{APIKey: os.Getenv("RF_API_KEY")}
	var remoteTiers []store.Tier
	if cfg.Dispatcher != nil && *storeShard > 0 {
		remoteTiers = append(remoteTiers, store.Tier{
			Name: "peer", Backend: store.NewPeer(cfg.Dispatcher, ropts),
		})
	}
	for _, ti := range store.RemoteTiers(*storeRem, ropts) {
		remoteTiers = append(remoteTiers, ti)
		fmt.Fprintf(os.Stderr, "rfserved: remote store tier %s\n", ti.ID)
	}
	tiers := store.NewTiers(store.TierConfig{
		Local: st, Remotes: remoteTiers, Shards: *storeShard,
	})
	cfg.Cache = tiers

	var wh *warehouse.Warehouse
	if *warehouseD != "" {
		var err error
		wh, err = warehouse.Open(*warehouseD, warehouse.Options{Logf: logf})
		if err != nil {
			fatal(err)
		}
		cfg.Warehouse = wh
		ws := wh.Stats()
		fmt.Fprintf(os.Stderr, "rfserved: warehouse %s (%d segments, %d rows)\n",
			*warehouseD, ws.Segments, ws.Rows)
	}

	srv := server.New(cfg)
	// SIGHUP rotates the tenant key set in place: the -tenants file is
	// reloaded with the same defaults and swapped atomically. In-flight
	// requests and open result streams are untouched; a bad file keeps
	// the old registry. Only meaningful with -tenants — quota-only and
	// open deployments have nothing to reload.
	if *tenantsF != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				reg, err := tenant.LoadFile(*tenantsF, defaults)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rfserved: SIGHUP: keeping old tenants: %v\n", err)
					continue
				}
				srv.SetTenants(reg)
				fmt.Fprintf(os.Stderr, "rfserved: SIGHUP: %d tenants reloaded from %s\n", reg.Len(), *tenantsF)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "rfserved: listening on %s\n", bound)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Worker mode: pull jobs from the coordinator alongside the normal
	// API. Jobs run through this process's cached runner, so the local
	// store (and -workers budget) covers leased work too.
	workerDone := make(chan error, 1)
	if *join != "" {
		name := *workerName
		if name == "" {
			name, _ = os.Hostname()
		}
		fmt.Fprintf(os.Stderr, "rfserved: joining fleet at %s\n", *join)
		wcfg := dispatch.WorkerConfig{
			Coordinator: *join,
			Name:        name,
			Capacity:    *capacity,
			Simulate:    srv.RunJob,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "rfserved: "+format+"\n", args...)
			},
		}
		if st != nil {
			// Advertise this node's object API so a sharding coordinator
			// can read misses straight from our store. The bound address
			// must be reachable from the coordinator (bind a routable
			// -addr, not a wildcard, when the fleet spans hosts).
			wcfg.ObjectsURL = "http://" + bound
			wcfg.Inventory = st.ShardInventory
		}
		go func() {
			workerDone <- dispatch.RunWorker(ctx, wcfg)
		}()
	}

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rfserved: shutting down")
	case err := <-workerDone:
		// The worker loop only returns early on a permanent registration
		// failure; without a fleet connection this process is useless.
		if err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
	case err := <-errc:
		fatal(err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Scheduler first: canceling the sweeps is what unblocks any
	// connected NDJSON streamers (their sweeps reach a terminal state),
	// so the HTTP drain that follows can actually finish.
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rfserved: scheduler shutdown: %v\n", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "rfserved: http shutdown: %v\n", err)
	}
	// The scheduler has sealed its last segment.
	if wh != nil {
		if err := wh.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rfserved: warehouse close: %v\n", err)
		}
	}
	// Tier replication drains before the local store closes.
	tiers.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rfserved: store close: %v\n", err)
		}
	}
	// The journal closes last, after the scheduler has written its final
	// records.
	if serverWAL != nil {
		if err := serverWAL.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rfserved: journal close: %v\n", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rfserved: %v\n", err)
	os.Exit(1)
}
