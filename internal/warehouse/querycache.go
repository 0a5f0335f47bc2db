package warehouse

import (
	"encoding/json"
	"sync"
	"time"

	"repro/rf/api"
)

// Bounds of the query cache. Both are constants: a cached scan is a
// faster way to the same answer, so no setting needs to reach them.
const (
	// queryCacheCap bounds the documents whose scans Query keeps. When
	// the cache is full, a new document empties it and starts over.
	queryCacheCap = 64
	// queryCacheRows bounds the rows that the cached rows-op pages hold
	// between them, about 200 B each. A scan whose page would take the
	// total past it is answered but not kept.
	queryCacheRows = 4 * MaxLimit
)

// queryKey names a cached scan: the canonical document and the segments
// it may see.
type queryKey struct {
	doc      string // json.Marshal of the parsed query
	owner    string // "" when untenanted
	tenanted bool
}

// queryEntry is one document's resumable scan. Its lock serializes the
// queries of that document, so each one resumes where the last stopped.
type queryEntry struct {
	mu      sync.Mutex
	q       *api.Query // decoded from the key's doc: no caller's value is kept
	state   *evalState
	epoch   uint64 // w.epoch when state last advanced
	done    int    // w.segs[:done] are folded into state
	charged int    // rows of state counted in queryCache.rows
}

// queryCache holds the scans of recently asked documents.
type queryCache struct {
	mu      sync.Mutex
	entries map[queryKey]*queryEntry
	rows    int // rows the entries' states hold, as last charged
}

// entry returns the key's cached scan, making an empty one if there is
// none.
func (c *queryCache) entry(key queryKey) (*queryEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e, nil
	}
	q, err := ParseQuery([]byte(key.doc))
	if err != nil {
		return nil, err
	}
	if c.entries == nil || len(c.entries) >= queryCacheCap {
		c.entries = make(map[queryKey]*queryEntry)
		c.rows = 0
	}
	e := &queryEntry{q: q}
	c.entries[key] = e
	return e, nil
}

// charge counts the rows e's state holds against queryCacheRows,
// dropping e if they take the total past it. An entry the cache has
// already dropped or emptied is not counted. Callers hold e.mu.
func (c *queryCache) charge(key queryKey, e *queryEntry) {
	n := len(e.state.rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != e {
		return
	}
	c.rows += n - e.charged
	e.charged = n
	if c.rows > queryCacheRows {
		delete(c.entries, key)
		c.rows -= n
	}
}

// Query evaluates one query document over the sealed segments. When
// tenanted, only segments owned by owner are visible — the same
// ownership rule as the results stream.
//
// The answer is Eval's over the visible segments, byte for byte, but a
// document asked before resumes its scan: only the segments sealed
// since then are scanned. Resuming is exact while the segments the scan
// has consumed are still a prefix of the sweep-id order, which a seal
// at the tail keeps; any other change (a re-seal, a drop, a rebuild
// into the middle) bumps the warehouse's epoch, and a scan of an older
// epoch starts over. The cache keys the document by its json.Marshal
// encoding and evaluates that encoding, so a string field that is not
// valid UTF-8 reads as U+FFFD, as it would over the wire.
func (w *Warehouse) Query(q *api.Query, owner string, tenanted bool) (*api.QueryResult, error) {
	start := time.Now()
	defer func() {
		w.queries.Add(1)
		w.queryNanos.Add(int64(time.Since(start)))
	}()
	if err := ValidateQuery(q); err != nil {
		return nil, err
	}
	if !tenanted {
		owner = ""
	}
	doc, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	key := queryKey{doc: string(doc), owner: owner, tenanted: tenanted}
	e, err := w.cache.entry(key)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	w.mu.Lock()
	if e.state == nil || e.epoch != w.epoch {
		e.state, e.epoch, e.done = nil, w.epoch, 0
	}
	tail := make([]*Segment, 0, len(w.segs)-e.done)
	for _, seg := range w.segs[e.done:] {
		if tenanted && seg.Tenant != owner {
			continue
		}
		tail = append(tail, seg)
	}
	e.done = len(w.segs)
	w.mu.Unlock()

	if e.state == nil {
		if e.state, err = newEvalState(e.q); err != nil {
			return nil, err
		}
	}
	e.state.advance(tail)
	w.querySegments.Add(uint64(len(tail)))
	res := e.state.result()
	w.cache.charge(key, e)
	return res, nil
}
