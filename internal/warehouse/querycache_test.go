package warehouse

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/rf/api"
)

// resumeDocs cover every op with string and dims filters, the sweep
// restriction, and rows pages that start past the first segments.
var resumeDocs = []string{
	`{}`,
	`{"op":"rows","limit":5,"cursor":"10"}`,
	`{"op":"rows","limit":7,"cursor":"30","families":["rfcache"]}`,
	`{"op":"rows","sweep":"s000040"}`,
	`{"op":"aggregate","group_by":["sweep","family","suite"],"metrics":[` +
		`{"op":"sum","metric":"cycles"},{"op":"mean","metric":"ipc"},{"op":"min","metric":"ipc"},{"op":"max","metric":"area"}]}`,
	`{"op":"aggregate","group_by":["benchmark"],"benchmarks":["swim","gcc"]}`,
	`{"op":"aggregate","sweep":"s000040"}`,
	`{"op":"series"}`,
	`{"op":"series","dims":{"read_ports":[4]}}`,
	`{"op":"pareto"}`,
	`{"op":"pareto","families":["rfcache","replicated"]}`,
}

// queryOwner is who asks: a tenant, or anyone on an untenanted server.
type queryOwner struct {
	name     string
	tenanted bool
}

var resumeOwners = []queryOwner{{"acme", true}, {"beta", true}, {"", false}}

func parseDocs(t testing.TB, docs []string) []*api.Query {
	t.Helper()
	qs := make([]*api.Query, len(docs))
	for i, doc := range docs {
		q, err := ParseQuery([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// owned returns the segments of segs that a query of o sees.
func owned(segs []*Segment, o queryOwner) []*Segment {
	var out []*Segment
	for _, s := range segs {
		if !o.tenanted || s.Tenant == o.name {
			out = append(out, s)
		}
	}
	return out
}

// visible returns the segments a query of o sees now, as Query did
// before it kept scans.
func visible(w *Warehouse, o queryOwner) []*Segment {
	w.mu.Lock()
	defer w.mu.Unlock()
	return owned(w.segs, o)
}

func queryJSON(t testing.TB, w *Warehouse, q *api.Query, o queryOwner) string {
	t.Helper()
	res, err := w.Query(q, o.name, o.tenanted)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// noStore is a RebuildSweep store that has evicted everything, so the
// journaled rows supply every result.
func noStore(sweep.Key) (sim.Result, bool) { return sim.Result{}, false }

// TestQueryResumesAsEval interleaves tail seals with every change that
// is not one — a re-seal of a reused sweep id, a drop, a RebuildSweep
// into the middle of the sweep-id order and one over a sealed sweep,
// which replaces it in place — and asks queries
// of every op, tenanted and not, between them. Every answer must be the
// bytes Eval gives over the segments visible at that moment, whether
// the query resumed a scan or started over.
func TestQueryResumesAsEval(t *testing.T) {
	specs := []string{testSpecJSON, reversedSpecJSON, gridSpecJSON}
	tenants := []string{"acme", "beta", ""}
	qs := parseDocs(t, resumeDocs)
	r := rand.New(rand.NewSource(1))
	w := newWarehouse(t, t.TempDir(), Options{})

	var sealed []string // sealed sweep ids
	next := 0           // tail ids are multiples of 10; the gaps take middle inserts
	pick := func() int { return r.Intn(len(sealed)) }
	sweepRows := func(step int) ([]sweep.Job, []sweep.Row, string) {
		jobs, rows := specJobsRows(t, specs[r.Intn(len(specs))], step)
		return jobs, rows, tenants[r.Intn(len(tenants))]
	}
	for step := 0; step < 80; step++ {
		action := r.Intn(10)
		if len(sealed) == 0 {
			action = 0
		}
		switch {
		case action < 5: // a seal at the tail
			next += 10
			id := fmt.Sprintf("s%06d", next)
			jobs, rows, tenant := sweepRows(step)
			sealRows(t, w, id, tenant, jobs, rows)
			sealed = append(sealed, id)
		case action < 7: // a reused sweep id: Begin drops, Seal re-inserts
			jobs, rows, tenant := sweepRows(step)
			sealRows(t, w, sealed[pick()], tenant, jobs, rows)
		case action < 8: // a reused sweep id that is canceled
			k := pick()
			w.Begin(sealed[k], "wh-test", "", 1)
			w.Discard(sealed[k])
			sealed = append(sealed[:k], sealed[k+1:]...)
		case action < 9: // a rebuild over a sealed sweep replaces it in place
			jobs, rows, tenant := sweepRows(step)
			if err := w.RebuildSweep(sealed[pick()], "wh-test", tenant, jobs, rows, noStore); err != nil {
				t.Fatal(err)
			}
		default: // recovery rebuilds a sweep that sorts before the tail
			id := fmt.Sprintf("s%06d", next-10+1+r.Intn(9))
			if w.Has(id) {
				continue
			}
			jobs, rows, tenant := sweepRows(step)
			if err := w.RebuildSweep(id, "wh-test", tenant, jobs, rows, noStore); err != nil {
				t.Fatal(err)
			}
			sealed = append(sealed, id)
		}
		for k := 0; k < 8; k++ {
			q := qs[r.Intn(len(qs))]
			o := resumeOwners[r.Intn(len(resumeOwners))]
			want := evalJSON(t, visible(w, o), q)
			if got := queryJSON(t, w, q, o); got != want {
				t.Fatalf("step %d, owner %+v, query %+v:\n got %s\nwant %s", step, o, q, got, want)
			}
		}
	}
}

// TestQueryResumesConcurrently has two goroutines ask the same documents
// while a third seals at the tail. Each answer must be Eval's over some
// prefix of the final segments, and a goroutine's answers to one
// document must never go back to a shorter prefix. Short tier, so the
// race job runs it; locally: go test -race -count=10 -run Concurrently.
func TestQueryResumesConcurrently(t *testing.T) {
	jobs, rows := testJobsRows(t)
	qs := parseDocs(t, []string{resumeDocs[0], resumeDocs[2], resumeDocs[4], resumeDocs[7], resumeDocs[9]})
	owners := []queryOwner{{"acme", true}, {"", false}}
	w := newWarehouse(t, t.TempDir(), Options{})
	const initial, seals = 5, 40
	seal := func(i int) error {
		id := fmt.Sprintf("s%06d", i+1)
		w.Begin(id, "wh-test", []string{"acme", "beta"}[i%2], len(jobs))
		for k := range jobs {
			w.Add(id, k, jobs[k], rows[k])
		}
		return w.Seal(id)
	}
	for i := 0; i < initial; i++ {
		if err := seal(i); err != nil {
			t.Fatal(err)
		}
	}

	type answer struct{ q, o int }
	got := make([]map[answer][]string, 2)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := initial; i < initial+seals; i++ {
			if err := seal(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := range got {
		got[g] = map[answer][]string{}
		go func(g int) {
			defer wg.Done()
			for n := 0; !done.Load() || n < 50; n++ {
				a := answer{q: (n + g) % len(qs), o: n % len(owners)}
				res, err := w.Query(qs[a.q], owners[a.o].name, owners[a.o].tenanted)
				if err != nil {
					t.Error(err)
					return
				}
				out, _ := json.Marshal(res)
				got[g][a] = append(got[g][a], string(out))
			}
		}(g)
	}
	wg.Wait()

	final := visible(w, queryOwner{})
	want := map[answer][]string{} // by prefix length
	for q := range qs {
		for o := range owners {
			for k := 0; k <= len(final); k++ {
				a := answer{q, o}
				want[a] = append(want[a], evalJSON(t, owned(final[:k], owners[o]), qs[q]))
			}
		}
	}
	for g := range got {
		for a, outs := range got[g] {
			k := initial
			for _, out := range outs {
				for k < len(final) && out != want[a][k] {
					k++
				}
				if out != want[a][k] {
					t.Fatalf("goroutine %d, owner %+v, query %+v: answer %s is no prefix's, or an earlier one's",
						g, owners[a.o], qs[a.q], out)
				}
			}
		}
	}
}

// checkQueryCache asserts the cache's bounds and that its row total is
// what its entries hold.
func checkQueryCache(t *testing.T, w *Warehouse, when string) {
	t.Helper()
	c := &w.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	held := 0
	for _, e := range c.entries {
		held += len(e.state.rows)
	}
	if len(c.entries) > queryCacheCap || held > queryCacheRows || c.rows != held {
		t.Fatalf("%s: %d entries holding %d rows (counted %d); caps %d and %d",
			when, len(c.entries), held, c.rows, queryCacheCap, queryCacheRows)
	}
}

// cached reports whether the cache holds a scan of doc for anyone on an
// untenanted server.
func cached(t *testing.T, w *Warehouse, doc string) bool {
	t.Helper()
	key := mustJSON(t, parseDocs(t, []string{doc})[0])
	w.cache.mu.Lock()
	defer w.cache.mu.Unlock()
	return w.cache.entries[queryKey{doc: key}] != nil
}

// TestQueryCacheBounded churns ten times the cache's capacity of
// distinct documents, one in eight of them a rows page at MaxLimit from
// its own cursor. The cache must stay within both bounds throughout,
// keep no page that would pass the row budget, and keep no entry for a
// query it rejects.
func TestQueryCacheBounded(t *testing.T) {
	jobs, rows := specJobsRows(t, gridSpecJSON, 0)
	w := newWarehouse(t, t.TempDir(), Options{})
	for i := 1; i <= 100; i++ { // 10800 rows: a page from cursor c holds min(10800-c, MaxLimit)
		sealRows(t, w, fmt.Sprintf("s%06d", i), "", jobs, rows)
	}
	page := func(cursor int) string {
		return fmt.Sprintf(`{"op":"rows","limit":%d,"cursor":"%d"}`, MaxLimit, cursor)
	}
	ask := func(doc string) {
		t.Helper()
		q, err := ParseQuery([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Query(q, "", false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10*queryCacheCap; i++ {
		doc := fmt.Sprintf(`{"op":"aggregate","dims":{"phys_regs":[%d]}}`, i)
		if i%8 == 0 {
			doc = page(i)
		}
		ask(doc)
		checkQueryCache(t, w, fmt.Sprintf("after %d documents", i+1))
	}

	// Full pages fill the row budget exactly; one more is answered, not
	// kept, and costs the pages already kept nothing.
	w.cache.mu.Lock()
	w.cache.entries, w.cache.rows = nil, 0
	w.cache.mu.Unlock()
	full := queryCacheRows / MaxLimit
	for c := 0; c <= full; c++ {
		ask(page(c))
		checkQueryCache(t, w, fmt.Sprintf("after full page %d", c))
	}
	for c := 0; c < full; c++ {
		if !cached(t, w, page(c)) {
			t.Errorf("page from cursor %d within the budget was not kept", c)
		}
	}
	if cached(t, w, page(full)) {
		t.Errorf("page from cursor %d past the row budget was kept", full)
	}

	// A rejected query leaves no entry behind.
	before := len(w.cache.entries)
	for _, q := range []*api.Query{{Cursor: "abc"}, {Op: "drop"}, {Limit: -1}} {
		if _, err := w.Query(q, "", false); err == nil {
			t.Fatalf("query %+v accepted", q)
		}
	}
	if n := len(w.cache.entries); n != before {
		t.Errorf("rejected queries left %d entries, want %d", n, before)
	}
}

// TestQuerySegmentsCounted pins QuerySegments: a first query scans every
// visible segment, a repeat scans only the segments sealed since, and
// any change but a seal at the tail makes the next query scan afresh.
func TestQuerySegmentsCounted(t *testing.T) {
	jobs, rows := testJobsRows(t)
	w := newWarehouse(t, t.TempDir(), Options{})
	for i := 1; i <= 4; i++ {
		sealRows(t, w, fmt.Sprintf("s%06d", i*10), []string{"acme", "beta"}[i%2], jobs, rows)
	}
	q := &api.Query{Op: api.QueryOpSeries}
	last := uint64(0)
	step := func(o queryOwner, want uint64, when string) {
		t.Helper()
		if _, err := w.Query(q, o.name, o.tenanted); err != nil {
			t.Fatal(err)
		}
		got := w.Stats().QuerySegments - last
		last += got
		if got != want {
			t.Errorf("%s: query scanned %d segments, want %d", when, got, want)
		}
	}
	anyone, acme := queryOwner{}, queryOwner{"acme", true}
	step(anyone, 4, "first query")
	step(anyone, 0, "repeat")
	step(acme, 2, "first tenanted query")
	sealRows(t, w, "s000050", "acme", jobs, rows)
	step(anyone, 1, "after a tail seal")
	step(acme, 1, "tenanted, after a tail seal")
	step(acme, 0, "tenanted repeat")
	sealRows(t, w, "s000020", "acme", jobs, rows) // a reused id
	step(anyone, 5, "after a re-seal")
	if err := w.RebuildSweep("s000015", "wh-test", "", jobs, rows, noStore); err != nil {
		t.Fatal(err)
	}
	step(anyone, 6, "after a rebuild into the middle")
	if err := w.RebuildSweep("s000030", "wh-test", "", jobs, rows, noStore); err != nil {
		t.Fatal(err)
	}
	step(anyone, 6, "after a rebuild in place")
	w.Begin("s000060", "wh-test", "", len(jobs)) // no sealed segment to drop
	w.Discard("s000060")
	step(anyone, 0, "after a Begin that dropped nothing")
	w.Begin("s000050", "wh-test", "", len(jobs))
	w.Discard("s000050")
	step(anyone, 5, "after a drop")
}
