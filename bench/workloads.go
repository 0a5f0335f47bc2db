package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/warehouse"
	"repro/rf/api"
	"repro/rf/client"
)

// env is one workload run inside the child process.
type env struct {
	sz    *size
	seed  uint64
	part  int     // which of the workload's parts this process runs, from 0
	dir   string  // state directory, removed afterwards
	tr    *tracer // nil: the untraced run
	tally tally
	dig   digest
	// phase is the wall time of the measured windows (set-ups excluded).
	phase     time.Duration
	setups    []float64 // seconds
	liveMB    float64
	simInstrs uint64 // grid-cold: instructions simulated, warm-up included
	layers    layerCounts
	profile   *profiler
	// specs are the workload's distinct sweep specs, and refSpec/refRows
	// its reference sweep and cold rows, for the traced run's replays.
	specs   []*sweep.Spec
	refSpec *sweep.Spec
	refRows []byte
}

// Op kinds in the tally.
const (
	opSweep = iota // a sweep streamed to its last row
	opQuery        // a /v1/query document
	opRow          // one grid-cold row, timed from its pass's start
)

// window is one measured stretch of a run — a grid-cold pass, one server
// lifetime of serve-warm or query-mix, a serve-open part's phase — as
// index ranges into the tally's samples.
type window struct {
	ops, firstRow [2]int
	seconds       float64
}

// tally collects op outcomes from concurrent clients.
type tally struct {
	mu        sync.Mutex
	ops       []float64 // latency of every successful op, ms
	sweeps    []float64 // sweep ops only
	queries   []float64 // query ops only
	firstRow  []float64 // to an op's (or pass's) first result, ms
	sweepRow  []float64 // to a sweep's first row, ms
	windows   []window
	rows      int
	attempted int
	failed    int
	errs      []string
}

// maxErrs bounds the failure descriptions carried in a report.
const maxErrs = 5

func (t *tally) record(kind int, lat, first time.Duration, rows int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.ops = append(t.ops, ms(lat))
	t.rows += rows
	switch kind {
	case opQuery:
		// A query's answer is one document: its first row arrives with
		// the last.
		t.queries = append(t.queries, ms(lat))
		t.firstRow = append(t.firstRow, ms(lat))
	case opSweep:
		t.sweeps = append(t.sweeps, ms(lat))
		t.firstRow = append(t.firstRow, ms(first))
		t.sweepRow = append(t.sweepRow, ms(first))
	}
}

func (t *tally) fail(err error) { t.record(opSweep, 0, 0, 0, err) }

// rowSink collects a result stream and the time its first row arrived.
type rowSink struct {
	start time.Time
	first time.Duration
	buf   []byte
}

func (s *rowSink) Write(p []byte) (int, error) {
	if s.first == 0 {
		s.first = time.Since(s.start)
	}
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// sweepOp submits one sweep through c and streams it to its last row,
// recording spans in tr. start is when the op was due (open loop) or
// issued (closed loop); the first-row time counts from there.
func sweepOp(ctx context.Context, tr *tracer, c *client.Client, spec *sweep.Spec, start time.Time) ([]byte, time.Duration, error) {
	root, endRoot := tr.begin("client.sweep", 0, "")
	defer endRoot()
	_, endSubmit := tr.begin("server.submit", root, "")
	ack, err := c.Submit(ctx, spec)
	endSubmit()
	if err != nil {
		return nil, 0, fmt.Errorf("submit: %w", err)
	}
	_, endStream := tr.begin("server.stream", root, ack.ID)
	sink := &rowSink{start: start}
	err = c.StreamResults(ctx, ack.ID, sink)
	endStream()
	if err != nil {
		return nil, 0, fmt.Errorf("sweep %s: %w", ack.ID, err)
	}
	tr.add("server.stream_bytes", float64(len(sink.buf)))
	return sink.buf, sink.first, nil
}

// checkedSweep is a measured sweep op: sweepOp plus the output check,
// recorded in the tally. It returns the stream when it passed.
func (e *env) checkedSweep(ctx context.Context, c *client.Client, spec *sweep.Spec, want *expect, start time.Time) []byte {
	stream, first, err := sweepOp(ctx, e.tr, c, spec, start)
	lat := time.Since(start)
	if err == nil {
		err = want.check(stream)
	}
	e.tally.record(opSweep, lat, first, len(want.keys), err)
	if err != nil {
		return nil
	}
	return stream
}

// closedLoop runs fn(client, i) once for every i in [0, n) on e.sz.clients
// concurrent callers: op i goes to client i mod clients, and each client
// issues its ops one after another.
func (e *env) closedLoop(n int, fn func(client, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < e.sz.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += e.sz.clients {
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// measure runs one measured window on n (nil when the workload has no
// server), profiling it and counting each layer's work when traced; last
// also takes the end-of-run heap figures.
func (e *env) measure(n *node, last bool, phase func()) {
	before := e.layers.snapshot(n)
	t := &e.tally
	t.mu.Lock()
	w := window{ops: [2]int{len(t.ops)}, firstRow: [2]int{len(t.firstRow)}}
	t.mu.Unlock()
	e.profile.start()
	t0 := time.Now()
	phase()
	d := time.Since(t0)
	e.profile.stop()
	e.phase += d
	t.mu.Lock()
	w.ops[1], w.firstRow[1], w.seconds = len(t.ops), len(t.firstRow), d.Seconds()
	t.windows = append(t.windows, w)
	t.mu.Unlock()
	e.layers.accumulate(before, e.layers.snapshot(n))
	if last {
		e.liveMB = liveHeapMB()
		e.layers.retained(before)
		e.profile.heapProfile()
	}
}

// liveHeapMB is the heap still reachable after two full collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func parseSpec(b []byte) (*sweep.Spec, *expect, error) {
	spec, err := sweep.ParseSpec(bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	want, err := expectFor(spec)
	return spec, want, err
}

// ---- grid-cold ---------------------------------------------------------

// runGridCold is the paper's evaluation shape, run as rfbatch runs it
// without -store: every pass hands the whole 18×6 grid at a new trace
// seed to a fresh zero-config runner, so every job simulates (grouped
// into one lockstep batch per proxy). An op is one result row, timed from
// the start of its pass; the set-up (parse, expand, construct the runner)
// is timed apart.
func runGridCold(ctx context.Context, e *env) error {
	plan := planGrid(e.sz, e.seed)
	for pass := range plan.seeds {
		b := plan.passSpec(pass)
		var spec *sweep.Spec
		var jobs []sweep.Job
		var runner *sweep.Runner
		for r := 0; r < e.sz.gridSetupReps; r++ {
			t0 := time.Now()
			var err error
			if spec, err = sweep.ParseSpec(bytes.NewReader(b)); err != nil {
				return err
			}
			if jobs, err = spec.Jobs(); err != nil {
				return err
			}
			cfg := sweep.RunnerConfig{}
			if e.tr != nil {
				cfg.SimulateBatch = e.tr.simBatch
				cfg.Cache = &timedCache{inner: sweep.NewMemCache(), tr: e.tr, get: "sweep.cache_get", put: "sweep.cache_put"}
			}
			runner = sweep.NewRunner(cfg)
			e.setups = append(e.setups, time.Since(t0).Seconds())
		}
		e.specs = append(e.specs, spec)
		var outs []sweep.Outcome
		var err error
		e.measure(nil, pass == len(plan.seeds)-1, func() {
			t0 := time.Now()
			first := true
			outs, err = runner.RunOutcomesContext(ctx, jobs, 0, func(sweep.Progress) {
				lat := time.Since(t0)
				e.tally.record(opRow, lat, 0, 1, nil)
				if first {
					first = false
					e.tally.mu.Lock()
					e.tally.firstRow = append(e.tally.firstRow, ms(lat))
					e.tally.mu.Unlock()
				}
			})
		})
		if err != nil {
			return err
		}
		rows, err := gridRows(jobs, outs)
		if err != nil {
			e.tally.fail(fmt.Errorf("pass %d: %w", pass, err))
			continue
		}
		e.dig.add(rows)
		e.simInstrs += uint64(len(jobs)) * e.sz.gridInstrs
	}
	return nil
}

// gridRows checks each outcome against its job and renders the rows as
// rfbatch -ndjson does.
func gridRows(jobs []sweep.Job, outs []sweep.Outcome) ([]byte, error) {
	if len(outs) != len(jobs) {
		return nil, fmt.Errorf("%d outcomes for %d jobs", len(outs), len(jobs))
	}
	var buf bytes.Buffer
	for i := range outs {
		if outs[i].Key != jobs[i].Key() {
			return nil, fmt.Errorf("outcome %d keyed %.12s, job key %.12s", i, outs[i].Key, jobs[i].Key())
		}
		res := &outs[i].Result
		if res.Instructions == 0 || res.Cycles == 0 || res.IPC <= 0 || res.IPC > float64(jobs[i].Config.CommitWidth) {
			return nil, fmt.Errorf("job %d: implausible result %s", i, res)
		}
		if err := sweep.WriteRow(&buf, sweep.RowOf(jobs[i], outs[i])); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// ---- fixtures and server lifetimes ---------------------------------------

// fixtureLifetime bounds the warm resubmits one fixture-building server
// lifetime makes, keeping each lifetime well under the journal's 5 s
// compaction tick: the fixture's on-disk state never depends on host
// speed.
const fixtureLifetime = 200

// makeFixture builds server state in dir: specs simulated cold (each
// stream checked, learned as its warm reference and digested), then
// resubmits warm resubmits of the first spec. It returns the cold streams
// and the number of sweeps finished, each of which sealed one warehouse
// segment. Spec i authenticates as tenant i mod 2 when reg is set.
// Nothing here is measured or traced.
func (e *env) makeFixture(ctx context.Context, dir string, reg *tenant.Registry, specs []*sweep.Spec, wants []*expect, resubmits int) ([][]byte, int, error) {
	cold := make([][]byte, len(specs))
	made := 0
	err := lifetime(dir, reg, func(n *node) error {
		for i, spec := range specs {
			key := ""
			if reg != nil {
				key = openTenants[i%len(openTenants)].Key
			}
			stream, _, err := sweepOp(ctx, nil, n.client(key), spec, time.Now())
			if err == nil {
				err = wants[i].check(stream)
			}
			if err != nil {
				return fmt.Errorf("fixture sweep %d: %w", i, err)
			}
			wants[i].learn(stream)
			e.dig.add(stream)
			cold[i] = stream
			made++
		}
		return nil
	})
	for done := 0; err == nil && done < resubmits; done += fixtureLifetime {
		count := min(fixtureLifetime, resubmits-done)
		err = lifetime(dir, reg, func(n *node) error {
			var mu sync.Mutex
			var failed error
			e.closedLoop(count, func(int, int) {
				stream, _, err := sweepOp(ctx, nil, n.client(""), specs[0], time.Now())
				if err == nil {
					err = wants[0].check(stream)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed = err
					return
				}
				made++
			})
			return failed
		})
	}
	if err != nil {
		return nil, 0, fmt.Errorf("building fixture: %w", err)
	}
	return cold, made, nil
}

// lifetime opens an untraced server on dir, runs fn, and shuts it down.
func lifetime(dir string, reg *tenant.Registry, fn func(*node) error) error {
	n, _, err := openNode(dir, reg, nil)
	if err != nil {
		return err
	}
	return errors.Join(fn(n), n.close())
}

// measuredClient is a client whose retries the traced run counts.
func (e *env) measuredClient(n *node, key string) *client.Client {
	return n.client(key, client.WithLogf(func(string, ...any) { e.tr.add("client.retries", 1) }))
}

// epochs runs count server lifetimes, each on a fresh copy of the fixture
// in pristine: restart (timed as set-up), one measured window, shutdown.
func (e *env) epochs(pristine string, count int, phase func(ep int, clients []*client.Client)) error {
	dir := filepath.Join(e.dir, "epoch")
	for ep := 0; ep < count; ep++ {
		// Every lifetime starts from the same heap: none of the previous
		// one's garbage is left to collect during the window.
		runtime.GC()
		if err := copyDir(pristine, dir); err != nil {
			return err
		}
		n, setup, err := openNode(dir, nil, e.tr)
		if err != nil {
			return err
		}
		e.setups = append(e.setups, setup.Seconds())
		clients := make([]*client.Client, e.sz.clients)
		for i := range clients {
			clients[i] = e.measuredClient(n, "")
		}
		last := ep == count-1
		e.measure(n, last, func() { phase(ep, clients) })
		if err := n.close(); err != nil {
			return err
		}
		if last && e.tr != nil {
			if err := e.keepWarehouse(dir); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// keepWarehouse copies a closed server's warehouse for the replays.
func (e *env) keepWarehouse(serverDir string) error {
	e.layers.whDir = filepath.Join(e.dir, "warehouse-replay")
	return copyDir(filepath.Join(serverDir, "warehouse"), e.layers.whDir)
}

// ---- serve-warm --------------------------------------------------------

// runServeWarm measures pure service overhead: a restarted server
// answering resubmits of a grid it simulated in an earlier lifetime. Each
// epoch restarts from the same fixture copy, so retained sweeps never
// accumulate past one epoch and every epoch pays the post-restart disk
// reads once.
func runServeWarm(ctx context.Context, e *env) error {
	spec, want, err := parseSpec(planWarm(e.sz, e.seed))
	if err != nil {
		return err
	}
	pristine := filepath.Join(e.dir, "fixture")
	cold, _, err := e.makeFixture(ctx, pristine, nil, []*sweep.Spec{spec}, []*expect{want}, e.sz.warmFixtureResubmits)
	if err != nil {
		return err
	}
	e.specs, e.refSpec, e.refRows = []*sweep.Spec{spec}, spec, cold[0]
	return e.epochs(pristine, e.sz.warmEpochs, func(_ int, clients []*client.Client) {
		e.closedLoop(e.sz.warmEpochSweeps, func(c, _ int) {
			e.checkedSweep(ctx, clients[c], spec, want, time.Now())
		})
	})
}

// ---- serve-open --------------------------------------------------------

// runServeOpen is the open-loop workload: two tenants, arrivals at a
// constant rate regardless of completions, three cold arrivals (new trace
// seed: simulate, store, journal, ingest) to every warm re-request of a
// fixture sweep made in an earlier server lifetime. Latency counts from
// when each arrival was due. Each part builds the same fixture on a
// server of its own and runs its share of the arrivals.
func runServeOpen(ctx context.Context, e *env) error {
	plan := planOpen(e.sz, e.seed)
	lo, hi := share(len(plan.arrivals), e.sz.parts("serve-open"), e.part)
	arrivals := plan.arrivals[lo:hi]
	reg, err := tenant.Load(bytes.NewReader(mustJSON(map[string]any{"tenants": openTenants})), tenant.Limits{})
	if err != nil {
		return err
	}
	var fixtures []*sweep.Spec
	var wants []*expect
	for _, b := range plan.fixtures {
		spec, want, err := parseSpec(b)
		if err != nil {
			return err
		}
		fixtures, wants = append(fixtures, spec), append(wants, want)
	}
	dir := filepath.Join(e.dir, "server")
	cold, _, err := e.makeFixture(ctx, dir, reg, fixtures, wants, 0)
	if err != nil {
		return err
	}
	e.specs, e.refSpec, e.refRows = append(e.specs, fixtures...), fixtures[0], cold[0]
	specs := make([]*sweep.Spec, len(arrivals))
	arrWant := make([]*expect, len(arrivals))
	for i, a := range arrivals {
		if a.Warm {
			specs[i], arrWant[i] = fixtures[a.Fixture], wants[a.Fixture]
			continue
		}
		if specs[i], arrWant[i], err = parseSpec(a.Spec); err != nil {
			return err
		}
		e.specs = append(e.specs, specs[i])
	}
	var n *node
	for r := 0; r < e.sz.openRestarts; r++ {
		if n != nil {
			if err := n.close(); err != nil {
				return err
			}
		}
		runtime.GC() // as between epochs: no earlier garbage in the set-up
		var setup time.Duration
		if n, setup, err = openNode(dir, reg, e.tr); err != nil {
			return err
		}
		e.setups = append(e.setups, setup.Seconds())
	}
	clients := make([]*client.Client, len(openTenants))
	for i, t := range openTenants {
		clients[i] = e.measuredClient(n, t.Key)
	}
	streams := make([][]byte, len(arrivals))
	e.measure(n, true, func() {
		t0 := time.Now()
		spacing := time.Duration(float64(time.Second) / e.sz.openRate)
		var wg sync.WaitGroup
		for i := range arrivals {
			due := t0.Add(time.Duration(i) * spacing)
			time.Sleep(time.Until(due))
			e.tr.sample("loadgen.late", time.Since(due))
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				streams[i] = e.checkedSweep(ctx, clients[arrivals[i].Tenant], specs[i], arrWant[i], due)
			}(i, due)
		}
		wg.Wait()
	})
	for _, s := range streams {
		e.dig.add(s)
	}
	if err := n.close(); err != nil {
		return err
	}
	if e.tr != nil {
		return e.keepWarehouse(dir)
	}
	return nil
}

// ---- query-mix ---------------------------------------------------------

// runQueryMix is the read side of the warehouse: each client's ops are a
// seeded mix of /v1/query documents over ~500 sealed segments and warm
// resubmits that seal one more segment each.
func runQueryMix(ctx context.Context, e *env) error {
	plan := planQuery(e.sz, e.seed)
	spec, want, err := parseSpec(plan.fixture)
	if err != nil {
		return err
	}
	pristine := filepath.Join(e.dir, "fixture")
	cold, segments, err := e.makeFixture(ctx, pristine, nil, []*sweep.Spec{spec}, []*expect{want}, e.sz.queryFixtureResubmits)
	if err != nil {
		return err
	}
	e.specs, e.refSpec, e.refRows = []*sweep.Spec{spec}, spec, cold[0]
	qe, err := newQueryExpect(spec, cold[0], segments)
	if err != nil {
		return err
	}
	var docs []*api.Query
	for _, d := range queryDocs {
		q, err := warehouse.ParseQuery([]byte(d))
		if err != nil {
			return err
		}
		docs = append(docs, q)
	}
	return e.epochs(pristine, len(plan.ops), func(ep int, clients []*client.Client) {
		ops := plan.ops[ep]
		queries := make([]int, e.sz.clients) // per client: the next document
		e.closedLoop(len(ops), func(c, i int) {
			if ops[i] {
				e.checkedSweep(ctx, clients[c], spec, want, time.Now())
				return
			}
			q := docs[(queries[c]+c)%len(docs)]
			queries[c]++
			t0 := time.Now()
			_, end := e.tr.begin("client.query", 0, "")
			res, err := clients[c].Query(ctx, q)
			end()
			lat := time.Since(t0)
			if err == nil {
				err = qe.check(q, res)
			}
			e.tally.record(opQuery, lat, 0, 0, err)
		})
	})
}

// workloads are run in this order by -workload all.
var workloads = []struct {
	name string
	run  func(context.Context, *env) error
}{
	{"grid-cold", runGridCold},
	{"serve-warm", runServeWarm},
	{"serve-open", runServeOpen},
	{"query-mix", runQueryMix},
}
