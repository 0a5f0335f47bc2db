package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/warehouse"
)

// perLayer are the traced run's metrics, reported by every workload (0
// where the workload never enters the layer). Tails are p90: p99 needs
// 1000 samples, which not every workload gives every layer.
var perLayer = []metric{
	{"host.calib_ms", "ms", "lower"},

	{"sim.jobs", "count", "lower"},
	{"sim.minstr", "Minstr", "lower"},
	{"sim.busy_s", "s", "lower"},
	{"sim.ns_per_instr", "ns", "lower"},
	{"sim.setup_us_p50", "us", "lower"},
	{"sim.alloc_kb_per_job", "KB", "lower"},
	{"sim.fetch_share", "ratio", "lower"},
	{"sim.dispatch_share", "ratio", "lower"},
	{"sim.issue_share", "ratio", "lower"},
	{"sim.writeback_share", "ratio", "lower"},
	{"sim.commit_share", "ratio", "lower"},
	{"sim.lockstep_share", "ratio", "lower"},
	{"core.share", "ratio", "lower"},
	{"lsq.share", "ratio", "lower"},
	{"bpred.share", "ratio", "lower"},
	{"cache.share", "ratio", "lower"},
	{"rename.share", "ratio", "lower"},
	{"sim.branch_stall_cpi", "cycles/instr", "lower"},
	{"sim.icache_stall_cpi", "cycles/instr", "lower"},
	{"sim.dispatch_stall_frac", "ratio", "lower"},
	{"sim.mispredict_rate", "ratio", "lower"},
	{"sim.dcache_miss_rate", "ratio", "lower"},
	{"sim.ipc_hmean_int", "IPC", "higher"},
	{"sim.ipc_hmean_fp", "IPC", "higher"},

	{"trace.programs_built", "count", "lower"},
	{"trace.build_ms_p50", "ms", "lower"},
	{"trace.walk_share", "ratio", "lower"},
	{"trace.build_share", "ratio", "lower"},

	{"sweep.expand_us_p50", "us", "lower"},
	{"sweep.key_us_p50", "us", "lower"},
	{"sweep.row_encode_us_p50", "us", "lower"},
	{"sweep.cache_gets", "count", "lower"},
	{"sweep.cache_hits", "count", "higher"},
	{"sweep.hit_ratio", "ratio", "higher"},
	{"sweep.cache_get_us_p50", "us", "lower"},
	{"sweep.cache_get_us_p90", "us", "lower"},
	{"sweep.cache_put_us_p50", "us", "lower"},

	{"store.gets", "count", "lower"},
	{"store.get_us_p50", "us", "lower"},
	{"store.get_us_p90", "us", "lower"},
	{"store.puts", "count", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.put_us_p90", "us", "lower"},
	{"store.index_writes", "count", "lower"},
	{"store.corrupt", "count", "lower"},
	{"store.mb", "MB", "lower"},
	{"store.open_ms", "ms", "lower"},

	{"wal.appends", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.appends_per_fsync", "ratio", "higher"},
	{"wal.compactions", "count", "lower"},
	{"wal.append_errors", "count", "lower"},
	{"wal.mb", "MB", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"wal.open_ms", "ms", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},

	{"warehouse.segments", "count", "lower"},
	{"warehouse.rows", "count", "lower"},
	{"warehouse.mb", "MB", "lower"},
	{"warehouse.ingest_errors", "count", "lower"},
	{"warehouse.queries", "count", "higher"},
	{"warehouse.query_ms_mean", "ms", "lower"},
	{"warehouse.open_ms", "ms", "lower"},
	{"warehouse.seal_ms_p50", "ms", "lower"},
	{"warehouse.seal_ms_p90", "ms", "lower"},
	{"warehouse.eval_series_ms", "ms", "lower"},
	{"warehouse.eval_aggregate_ms", "ms", "lower"},
	{"warehouse.eval_pareto_ms", "ms", "lower"},
	{"warehouse.eval_rows_ms", "ms", "lower"},

	{"server.submit_ms_p50", "ms", "lower"},
	{"server.submit_ms_p90", "ms", "lower"},
	{"server.stream_ms_p50", "ms", "lower"},
	{"server.new_ms", "ms", "lower"},
	{"server.query_overhead_ms", "ms", "lower"},
	{"server.bytes_per_row", "B", "lower"},
	{"server.sweeps_retained", "count", "lower"},
	{"server.heap_kb_per_sweep", "KB", "lower"},
	{"server.http_share", "ratio", "lower"},
	{"server.json_share", "ratio", "lower"},

	{"tenant.admitted", "count", "higher"},
	{"tenant.rejected", "count", "lower"},
	{"tenant.throttled", "count", "lower"},
	{"tenant.share", "ratio", "lower"},

	{"client.ops", "count", "higher"},
	{"client.failed", "count", "lower"},
	{"client.retries", "count", "lower"},

	{"loadgen.late_p90_ms", "ms", "lower"},
	{"loadgen.share", "ratio", "lower"},

	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mb_per_s", "MB/s", "lower"},
	{"heap.server_mb", "MB", "lower"},
	{"heap.warehouse_mb", "MB", "lower"},
	{"heap.sweep_mb", "MB", "lower"},
	{"heap.wal_mb", "MB", "lower"},
	{"heap.trace_mb", "MB", "lower"},
	{"heap.other_mb", "MB", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
}

// snap is one instant of a server lifetime's public counters.
type snap struct {
	metrics  map[string]float64
	store    store.Stats
	storeMB  float64
	wal      wal.Stats
	walBytes int64
	wh       warehouse.Stats
	rt       map[string]float64
	heapMB   float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := map[string]float64{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// layerCounts sums, over every measured phase, the change in each layer's
// public counters. The zero value with a nil tracer does nothing.
type layerCounts struct {
	tr       *tracer
	sum      map[string]float64
	replayMS []float64
	last     *snap
	// retainedSweeps and heapPerSweep describe the last server lifetime.
	retainedSweeps, heapPerSweep float64
	// whDir is a copy of the last lifetime's warehouse, for replays.
	whDir string
	err   error // the first failed /metrics scrape
}

func (l *layerCounts) snapshot(n *node) *snap {
	if l.tr == nil {
		return nil
	}
	s := &snap{rt: readRuntime(), heapMB: liveHeapMB()}
	if n == nil {
		return s
	}
	m, err := n.metrics()
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("scraping /metrics: %w", err)
	}
	s.metrics = m
	s.store, s.storeMB = n.st.Stats(), float64(n.st.SizeBytes())/(1<<20)
	s.wal, s.walBytes = n.journal.Stats(), n.journal.SizeBytes()
	s.wh = n.wh.Stats()
	return s
}

// accumulate adds the counter deltas between two snapshots of one phase.
func (l *layerCounts) accumulate(a, b *snap) {
	if l.tr == nil {
		return
	}
	if l.sum == nil {
		l.sum = map[string]float64{}
	}
	d := func(name string, x, y float64) { l.sum[name] += y - x }
	for _, k := range runtimeSamples {
		d(k, a.rt[k], b.rt[k])
	}
	l.last = b
	if b.metrics == nil {
		return
	}
	for k, y := range b.metrics {
		name := k
		if i := strings.IndexByte(k, '{'); i >= 0 && strings.HasPrefix(k, "rfserved_tenant_") {
			name = k[:i] // sum over tenants
		}
		d(name, a.metrics[k], y)
	}
	d("store.puts", float64(a.store.Puts), float64(b.store.Puts))
	d("store.index_writes", float64(a.store.IndexWrites), float64(b.store.IndexWrites))
	d("store.corrupt", float64(a.store.Corrupt), float64(b.store.Corrupt))
	d("wal.appends", float64(a.wal.Appends), float64(b.wal.Appends))
	d("wal.fsyncs", float64(a.wal.Fsyncs), float64(b.wal.Fsyncs))
	d("wal.compactions", float64(a.wal.Compactions), float64(b.wal.Compactions))
	d("wal.append_errors", float64(a.wal.AppendErrors), float64(b.wal.AppendErrors))
	d("wal.bytes", float64(a.walBytes), float64(b.walBytes))
	d("warehouse.queries", float64(a.wh.Queries), float64(b.wh.Queries))
	d("warehouse.query_s", a.wh.QuerySeconds, b.wh.QuerySeconds)
	d("warehouse.ingest_errors", float64(a.wh.IngestErrors), float64(b.wh.IngestErrors))
	l.replayMS = append(l.replayMS, ms(a.wal.ReplayDuration))
}

// retained records what the last lifetime's server still holds: sweeps,
// and live heap per sweep added during the phase.
func (l *layerCounts) retained(before *snap) {
	if l.tr == nil || before.metrics == nil {
		return
	}
	after := l.last
	total := after.metrics["rfserved_sweeps_total"]
	l.retainedSweeps = total
	if added := total - before.metrics["rfserved_sweeps_total"]; added > 0 {
		l.heapPerSweep = (liveHeapMB() - before.heapMB) * 1024 / added
	}
}

// layerValues computes every per-layer metric of the traced run.
func (e *env) layerValues(ctx context.Context, v map[string]float64) error {
	tr, l := e.tr, &e.layers
	var errs []error
	if l.err != nil {
		errs = append(errs, l.err)
	}
	// pct sets a percentile of one span's durations (µs), scaled; a layer
	// the workload never called reads 0.
	pct := func(out, span string, q, scale float64) {
		xs := tr.durations(span)
		if len(xs) == 0 {
			v[out] = 0
			return
		}
		x, err := percentile(xs, q)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", out, err))
		}
		v[out] = x * scale
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sum := func(k string) float64 { return l.sum[k] }

	// sim: the traced batch hook in grid-cold, /metrics for servers.
	jobs, instrs := tr.counter("sim.jobs"), tr.counter("sim.instrs")
	busy := 0.0
	for _, x := range tr.durations("sim.batch") {
		busy += x / 1e6
	}
	if jobs == 0 {
		jobs = sum("rfserved_simulations_started_total")
		instrs = sum("rfserved_instructions_simulated_total")
		busy = sum("rfserved_simulation_seconds_total")
	}
	v["sim.jobs"], v["sim.minstr"], v["sim.busy_s"] = jobs, instrs/1e6, busy
	v["sim.ns_per_instr"] = ratio(busy*1e9, instrs)
	modeled(tr.results, v)
	v["sim.ipc_hmean_int"], v["sim.ipc_hmean_fp"] = v["ipc_hmean_int"], v["ipc_hmean_fp"]

	// sweep cache, store and client spans.
	gets, hits := float64(len(tr.durations("sweep.cache_get"))), tr.counter("sweep.cache_get.hits")
	v["sweep.cache_gets"], v["sweep.cache_hits"], v["sweep.hit_ratio"] = gets, hits, ratio(hits, gets)
	pct("sweep.cache_get_us_p50", "sweep.cache_get", 50, 1)
	pct("sweep.cache_get_us_p90", "sweep.cache_get", 90, 1)
	pct("sweep.cache_put_us_p50", "sweep.cache_put", 50, 1)
	v["store.gets"] = float64(len(tr.durations("store.get")))
	pct("store.get_us_p50", "store.get", 50, 1)
	pct("store.get_us_p90", "store.get", 90, 1)
	pct("store.put_us_p50", "store.put", 50, 1)
	pct("store.put_us_p90", "store.put", 90, 1)
	pct("store.open_ms", "store.open", 50, 1e-3)
	v["store.puts"], v["store.index_writes"], v["store.corrupt"] = sum("store.puts"), sum("store.index_writes"), sum("store.corrupt")

	// wal.
	v["wal.appends"], v["wal.fsyncs"] = sum("wal.appends"), sum("wal.fsyncs")
	v["wal.appends_per_fsync"] = ratio(sum("wal.appends"), sum("wal.fsyncs"))
	v["wal.compactions"], v["wal.append_errors"] = sum("wal.compactions"), sum("wal.append_errors")
	v["wal.replay_ms"] = 0
	if len(l.replayMS) > 0 {
		v["wal.replay_ms"] = median(l.replayMS)
	}
	pct("wal.open_ms", "wal.open", 50, 1e-3)

	// warehouse.
	v["warehouse.ingest_errors"], v["warehouse.queries"] = sum("warehouse.ingest_errors"), sum("warehouse.queries")
	v["warehouse.query_ms_mean"] = ratio(sum("warehouse.query_s")*1e3, sum("warehouse.queries"))
	pct("warehouse.open_ms", "warehouse.open", 50, 1e-3)
	for _, k := range []string{"store.mb", "wal.mb", "warehouse.segments", "warehouse.rows", "warehouse.mb"} {
		v[k] = 0
	}
	if s := l.last; s != nil && s.metrics != nil {
		v["store.mb"], v["wal.mb"] = s.storeMB, float64(s.walBytes)/(1<<20)
		v["warehouse.segments"], v["warehouse.rows"] = float64(s.wh.Segments), float64(s.wh.Rows)
		v["warehouse.mb"] = float64(s.wh.Bytes) / (1 << 20)
	}

	// server and client.
	pct("server.submit_ms_p50", "server.submit", 50, 1e-3)
	pct("server.submit_ms_p90", "server.submit", 90, 1e-3)
	pct("server.stream_ms_p50", "server.stream", 50, 1e-3)
	pct("server.new_ms", "server.new", 50, 1e-3)
	v["server.query_overhead_ms"] = 0
	if q, ok := v["query_p50_ms"]; ok {
		v["server.query_overhead_ms"] = q - v["warehouse.query_ms_mean"]
	}
	v["server.bytes_per_row"] = ratio(tr.counter("server.stream_bytes"), float64(e.tally.rows))
	if tr.counter("server.stream_bytes") == 0 {
		v["server.bytes_per_row"] = 0
	}
	v["server.sweeps_retained"], v["server.heap_kb_per_sweep"] = l.retainedSweeps, l.heapPerSweep
	v["tenant.admitted"] = sum("rfserved_tenant_admitted_total")
	v["tenant.rejected"] = sum("rfserved_tenant_rejected_total")
	v["tenant.throttled"] = sum("rfserved_tenant_throttled_total")
	v["client.ops"], v["client.failed"] = float64(e.tally.attempted), float64(e.tally.failed)
	v["client.retries"] = tr.counter("client.retries")
	pct("loadgen.late_p90_ms", "loadgen.late", 90, 1e-3)

	// runtime.
	phase := e.phase.Seconds()
	v["runtime.gc_cpu_share"] = ratio(sum(runtimeSamples[0]), sum(runtimeSamples[1]))
	v["runtime.gc_cycles"] = sum(runtimeSamples[2])
	v["runtime.alloc_mb_per_s"] = ratio(sum(runtimeSamples[3])/(1<<20), phase)

	if err := e.replays(v); err != nil {
		errs = append(errs, err)
	}
	if err := e.profile.fold(ctx, v); err != nil {
		errs = append(errs, fmt.Errorf("profile fold: %w", err))
	}
	return joinErrs(errs)
}

// modeled summarizes the modeled machine over the distinct results the
// workload delivered: exact for a given seed.
func modeled(results map[sweep.Key]sim.Result, v map[string]float64) {
	var instrs, cycles, branches, mispred, brStall, icStall, dispStall, dmiss float64
	for _, r := range results {
		instrs += float64(r.Instructions)
		cycles += float64(r.Cycles)
		branches += float64(r.Branches)
		mispred += float64(r.Mispredicts)
		brStall += float64(r.BranchStallCycles)
		icStall += float64(r.ICacheStallCycles)
		dispStall += float64(r.DispatchStalls)
		dmiss += r.DCacheMissRate
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["sim.branch_stall_cpi"] = div(brStall, instrs)
	v["sim.icache_stall_cpi"] = div(icStall, instrs)
	v["sim.dispatch_stall_frac"] = div(dispStall, cycles)
	v["sim.mispredict_rate"] = div(mispred, branches)
	v["sim.dcache_miss_rate"] = div(dmiss, float64(len(results)))
}

// replays re-issues the workload's own inputs to single public functions
// in isolation, after the phase.
func (e *env) replays(v map[string]float64) error {
	var jobs []sweep.Job
	seen := map[sweep.Key]bool{}
	var expandUS []float64
	for _, spec := range e.specs {
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			js, err := spec.Jobs()
			expandUS = append(expandUS, us(time.Since(t0)))
			if err != nil {
				return err
			}
			if r > 0 {
				continue
			}
			for _, j := range js {
				if k := j.Key(); !seen[k] {
					seen[k] = true
					jobs = append(jobs, j)
				}
			}
		}
	}
	v["sweep.expand_us_p50"] = median(expandUS)

	var keyUS, rowUS, setupUS, allocKB []float64
	var buf bytes.Buffer
	built := map[string]bool{} // profile+seed pairs among simulated jobs
	for i, j := range jobs {
		t0 := time.Now()
		k := j.Key()
		keyUS = append(keyUS, us(time.Since(t0)))
		res := e.tr.results[k]
		buf.Reset()
		t0 = time.Now()
		sweep.WriteRow(&buf, sweep.RowOf(j, sweep.Outcome{Result: res, Key: k}))
		rowUS = append(rowUS, us(time.Since(t0)))
		if e.tr.simulated[k] {
			built[fmt.Sprintf("%s/%d", j.Profile.Name, j.Seed)] = true
		}
		if i < 24 { // sim set-up: the program is built, so this is New alone
			p := j.Profile
			if j.Seed != 0 {
				p.Seed = j.Seed
			}
			trace.New(p)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
			sim.New(j.Config, trace.New(p))
			setupUS = append(setupUS, us(time.Since(t0)))
			runtime.ReadMemStats(&m1)
			allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		}
	}
	v["sweep.key_us_p50"], v["sweep.row_encode_us_p50"] = median(keyUS), median(rowUS)
	v["sim.setup_us_p50"], v["sim.alloc_kb_per_job"] = median(setupUS), mean(allocKB)
	v["trace.programs_built"] = float64(len(built))

	// Program build: each distinct profile at a seed no workload draws.
	var buildMS []float64
	profiles := map[string]bool{}
	for _, j := range jobs {
		if profiles[j.Profile.Name] {
			continue
		}
		profiles[j.Profile.Name] = true
		p := j.Profile
		p.Seed = 1<<40 + uint64(len(profiles))
		t0 := time.Now()
		trace.New(p)
		buildMS = append(buildMS, ms(time.Since(t0)))
	}
	v["trace.build_ms_p50"] = median(buildMS)

	if err := e.replayWAL(v); err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	if err := e.replayWarehouse(v); err != nil {
		return fmt.Errorf("warehouse replay: %w", err)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// walReplayAppends is enough appends for a p99 with ten beyond it.
const walReplayAppends = 2000

// replayWAL appends records of the workload's mean journal record size to
// a fresh WAL on the same filesystem from one goroutine per CPU, timing
// each Append (group commit makes concurrent appenders share fsyncs).
func (e *env) replayWAL(v map[string]float64) error {
	v["wal.append_us_p50"], v["wal.append_us_p99"] = 0, 0
	appends := e.layers.sum["wal.appends"]
	if appends == 0 {
		return nil
	}
	size := int(e.layers.sum["wal.bytes"] / appends)
	if size < 1 {
		size = 1
	}
	w, err := wal.Open(filepath.Join(e.dir, "replay-wal"), wal.Options{})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("x"), size)
	procs := runtime.NumCPU()
	per := walReplayAppends / procs
	lat := make([][]float64, procs)
	var wg sync.WaitGroup
	var appendErr error
	var mu sync.Mutex
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				t0 := time.Now()
				if _, err := w.Append(payload); err != nil {
					mu.Lock()
					appendErr = err
					mu.Unlock()
					return
				}
				lat[c] = append(lat[c], us(time.Since(t0)))
			}
		}(c)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	var all []float64
	for _, xs := range lat {
		all = append(all, xs...)
	}
	v["wal.append_us_p50"] = median(all)
	p99, err := percentile(all, 99)
	v["wal.append_us_p99"] = p99
	return err
}

// sealReplays is enough seals for a p90 with ten beyond it.
const sealReplays = 100

// replayWarehouse seals the workload's reference sweep again and again
// into a copy of the last lifetime's warehouse, then times each query
// document against it.
func (e *env) replayWarehouse(v map[string]float64) error {
	for _, k := range []string{"warehouse.seal_ms_p50", "warehouse.seal_ms_p90", "warehouse.eval_series_ms",
		"warehouse.eval_aggregate_ms", "warehouse.eval_pareto_ms", "warehouse.eval_rows_ms"} {
		v[k] = 0
	}
	if e.layers.whDir == "" || e.refSpec == nil {
		return nil
	}
	wh, err := warehouse.Open(e.layers.whDir, warehouse.Options{})
	if err != nil {
		return err
	}
	jobs, err := e.refSpec.Jobs()
	if err != nil {
		return err
	}
	rows, err := sweep.ReadRows(bytes.NewReader(e.refRows))
	if err != nil {
		return err
	}
	var sealMS []float64
	for i := 0; i < sealReplays; i++ {
		id := fmt.Sprintf("r%06d", i)
		t0 := time.Now()
		wh.Begin(id, "replay", "", len(jobs))
		for k := range jobs {
			wh.Add(id, k, jobs[k], rows[k])
		}
		if err := wh.Seal(id); err != nil {
			return err
		}
		sealMS = append(sealMS, ms(time.Since(t0)))
	}
	v["warehouse.seal_ms_p50"] = median(sealMS)
	if v["warehouse.seal_ms_p90"], err = percentile(sealMS, 90); err != nil {
		return err
	}
	for _, doc := range queryDocs {
		q, err := warehouse.ParseQuery([]byte(doc))
		if err != nil {
			return err
		}
		var xs []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			if _, err := wh.Query(q, "", false); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		v["warehouse.eval_"+q.Op+"_ms"] = mean(xs)
	}
	return nil
}
