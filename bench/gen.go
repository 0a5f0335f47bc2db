package main

import (
	"encoding/json"
	"math"

	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// families are the six built-in register file families at their default
// dimensions: the paper's Figure 6 architectures plus the two extensions.
var families = []string{"1cycle", "2cycle", "2cycle1b", "rfcache", "onelevel", "replicated"}

// Generator streams. Each input drawn from -seed uses its own stream, so
// adding draws to one workload never shifts another's inputs.
const (
	streamGrid = iota + 1
	streamWarm
	streamOpen
	streamQuery
)

// size fixes the amount of work of every workload. Work never depends on
// elapsed time or on the host's CPU count, so two commits always do
// identical work and every count, digest and heap figure is comparable;
// a slower host takes longer, it does not do less.
type size struct {
	clients int // closed-loop callers of serve-warm, query-mix and fixtures

	gridInstrs     uint64   // per job: the paper's budget
	gridBenchmarks []string // nil: all 18 proxies
	gridPasses     int      // full grid passes, one trace seed each
	gridSetupReps  int      // parse+expand+runner set-ups timed per pass

	fixtureInstrs     uint64   // the grid simulated once for warm fixtures
	fixtureBenchmarks []string // nil: all 18 proxies

	warmFixtureResubmits int
	warmEpochs           int // server lifetimes
	warmEpochSweeps      int // per lifetime, all clients: bounds retained heap

	openRate      float64 // arrivals per second, constant spacing
	openArrivals  int     // over all parts
	openParts     int     // child processes the arrivals are split across; 0 means 1
	openInstrs    uint64  // per job of a 12-job arrival
	openFixtures  int     // warm sweeps made before the timed phase, in every part
	openRestarts  int     // set-ups timed before the phase
	openWarmEvery int     // one arrival in this many re-requests a fixture

	queryFixtureResubmits int
	queryEpochs           int // server lifetimes
	queryEpochOps         int // per lifetime, all clients
	queryResubmitShare    float64
}

// full is the benchmark's size: about 15 s of measured work per workload
// on a 2-core host, except serve-open's 2 × 15 s. An open loop yields one
// latency sample per arrival, and the host's slow spells last seconds, so
// serve-open needs the longer phase to average over them. It runs as two
// processes of 120 arrivals rather than one of 240 because every cold
// arrival adds two programs to the process's trace program cache, which
// never shrinks: one process would end with twice the heap.
var full = size{
	clients:    2,
	gridInstrs: 120000, gridPasses: 8, gridSetupReps: 25,
	fixtureInstrs:        30000,
	warmFixtureResubmits: 100, warmEpochs: 15, warmEpochSweeps: 500,
	openRate: 8, openArrivals: 240, openParts: 2, openInstrs: 30000, openFixtures: 12, openRestarts: 31, openWarmEvery: 4,
	queryFixtureResubmits: 500, queryEpochs: 8, queryEpochOps: 600, queryResubmitShare: 0.10,
}

// parts is how many child processes one run of workload is split across.
// They run one after another, each on an equal share of the work.
func (sz *size) parts(workload string) int {
	if workload == "serve-open" {
		return max(sz.openParts, 1)
	}
	return 1
}

// share is part k's index range [lo, hi) when n items split into parts.
func share(n, parts, k int) (lo, hi int) {
	return n * k / parts, n * (k + 1) / parts
}

// mustJSON renders plain data (a spec exactly as a client would send it,
// a tenants file).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

func archMatrices() []sweep.ArchMatrix {
	out := make([]sweep.ArchMatrix, len(families))
	for i, f := range families {
		out[i] = sweep.ArchMatrix{Kind: f}
	}
	return out
}

// gridSpec is the whole SPEC95 grid: 18 proxies × 6 families at one trace
// seed (an empty benchmark list means all 18).
func gridSpec(name string, instrs, seed uint64, benchmarks ...string) *sweep.Spec {
	return &sweep.Spec{
		Name: name, Instructions: instrs, Benchmarks: benchmarks,
		Seeds: []uint64{seed}, Architectures: archMatrices(),
	}
}

// seedPicker draws trace seeds from tracePool without repetition until
// the pool is used up, then starts over.
type seedPicker struct {
	r    *rng.PCG
	pool []uint64
}

func newSeedPicker(seed, stream uint64) *seedPicker {
	return &seedPicker{r: rng.New(seed, stream), pool: append([]uint64(nil), tracePool...)}
}

func (p *seedPicker) next() uint64 {
	if len(p.pool) == 0 {
		p.pool = append(p.pool, tracePool...)
	}
	i := p.r.Intn(len(p.pool))
	s := p.pool[i]
	p.pool[i] = p.pool[len(p.pool)-1]
	p.pool = p.pool[:len(p.pool)-1]
	return s
}

// gridPlan is grid-cold's input: one trace seed per pass, each pass the
// full grid in one sweep.
type gridPlan struct {
	sz    *size
	seeds []uint64
}

func planGrid(sz *size, seed uint64) gridPlan {
	p := newSeedPicker(seed, streamGrid)
	g := gridPlan{sz: sz}
	for i := 0; i < sz.gridPasses; i++ {
		g.seeds = append(g.seeds, p.next())
	}
	return g
}

func (g gridPlan) passSpec(pass int) []byte {
	return mustJSON(gridSpec("grid-cold", g.sz.gridInstrs, g.seeds[pass], g.sz.gridBenchmarks...))
}

// planWarm is serve-warm's input: the fixture grid, resubmitted
// throughout.
func planWarm(sz *size, seed uint64) []byte {
	p := newSeedPicker(seed, streamWarm)
	return mustJSON(gridSpec("serve-warm", sz.fixtureInstrs, p.next(), sz.fixtureBenchmarks...))
}

// openTenants are serve-open's tenants, in the tenants-file schema:
// equal priority, no limits.
var openTenants = []struct {
	Name string `json:"name"`
	Key  string `json:"key"`
}{
	{"lab-a", "bench-key-lab-a"},
	{"lab-b", "bench-key-lab-b"},
}

// arrival is one open-loop request: a fresh cold sweep, or a re-request
// of fixture sweep Fixture.
type arrival struct {
	Tenant  int
	Warm    bool
	Fixture int
	Spec    []byte
}

type openPlan struct {
	fixtures [][]byte
	arrivals []arrival
}

// deck deals proxy names in seeded random order, reshuffling after every
// full round, so each proxy appears equally often over a run and runs on
// different seeds do equal work.
type deck struct {
	r     *rng.PCG
	names []string
	next  int
}

func newDeck(r *rng.PCG, profiles []trace.Profile) *deck {
	d := &deck{r: r}
	for _, p := range profiles {
		d.names = append(d.names, p.Name)
	}
	return d
}

func (d *deck) deal() string {
	if d.next == 0 {
		for i := len(d.names) - 1; i > 0; i-- {
			j := d.r.Intn(i + 1)
			d.names[i], d.names[j] = d.names[j], d.names[i]
		}
	}
	name := d.names[d.next]
	d.next = (d.next + 1) % len(d.names)
	return name
}

// pairSpec is one SpecInt and one SpecFP proxy under all six families.
func pairSpec(name string, instrs uint64, ints, fps *deck, seed uint64) []byte {
	return mustJSON(gridSpec(name, instrs, seed, ints.deal(), fps.deal()))
}

func planOpen(sz *size, seed uint64) openPlan {
	r := rng.New(seed, streamOpen)
	p := newSeedPicker(seed, streamOpen)
	ints, fps := newDeck(r, trace.SpecInt95()), newDeck(r, trace.SpecFP95())
	var o openPlan
	for i := 0; i < sz.openFixtures; i++ {
		o.fixtures = append(o.fixtures, pairSpec("serve-open fixture", sz.openInstrs, ints, fps, p.next()))
	}
	warmAt := -1
	for i := 0; i < sz.openArrivals; i++ {
		if i%sz.openWarmEvery == 0 {
			warmAt = i + r.Intn(sz.openWarmEvery)
		}
		a := arrival{Tenant: i % len(openTenants)}
		if i == warmAt {
			a.Warm = true
			a.Fixture = r.Intn(sz.openFixtures)
			a.Spec = o.fixtures[a.Fixture]
		} else {
			a.Spec = pairSpec("serve-open", sz.openInstrs, ints, fps, p.next())
		}
		o.arrivals = append(o.arrivals, a)
	}
	return o
}

// Query documents of query-mix, rotated in this order.
var queryDocs = []string{
	`{"op":"series"}`,
	`{"op":"aggregate","group_by":["family"],"metrics":[{"op":"mean","metric":"ipc"}]}`,
	`{"op":"pareto"}`,
	`{"op":"rows","limit":100,"families":["rfcache"]}`,
}

// queryPlan is query-mix's input: the fixture grid and, per epoch, the op
// sequence (true = warm resubmit, false = a query), dealt to the clients
// by closedLoop. Every epoch holds the same number of resubmits, at
// seeded positions.
type queryPlan struct {
	fixture []byte
	ops     [][]bool // [epoch][op]
}

func planQuery(sz *size, seed uint64) queryPlan {
	r := rng.New(seed, streamQuery)
	p := newSeedPicker(seed, streamQuery)
	q := queryPlan{fixture: mustJSON(gridSpec("query-mix", sz.fixtureInstrs, p.next(), sz.fixtureBenchmarks...))}
	resubmits := int(math.Round(sz.queryResubmitShare * float64(sz.queryEpochOps)))
	for e := 0; e < sz.queryEpochs; e++ {
		ops := make([]bool, sz.queryEpochOps)
		for i := 0; i < resubmits; i++ {
			ops[i] = true
		}
		for i := len(ops) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			ops[i], ops[j] = ops[j], ops[i]
		}
		q.ops = append(q.ops, ops)
	}
	return q
}
