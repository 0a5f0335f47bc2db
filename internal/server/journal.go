package server

// Journaling and crash-resume for the sweep service. A sweep is its
// accepted spec and its rows. With Config.Journal set, every externally
// visible sweep transition is appended to the WAL before it is
// published: the spec (verbatim, so replay re-expands the exact job
// list), every completed row (the full wire row, so a resumed NDJSON
// stream reproduces the original bytes, cached flags included),
// cancellation requests, and the terminal state with its recovered
// marker. The journal is append-only: the server retains every sweep,
// so every record stays live and a snapshot would only re-encode the
// log. Recovery still reads the snapshot an older server's compaction
// may have left ({"next_id":N,"records":[...]}, or the older sweeps
// table), applying its records and then the log's, sizing each row
// table from the spec's job count under MaxJobs; it expands a spec only
// to resume the sweep or to rebuild its warehouse segment. Interrupted
// sweeps resume, marked recovered, and run only the jobs with no
// journaled row — completed work is never re-simulated.
//
// Records are written with json.Marshal and replayed with decodeRecord,
// which decodes them as json.Unmarshal would but without reflection:
// a restart decodes every record of the log. Only a submit carries
// submitted and only an end carries finished. Journals from servers
// that wrote both, zero, into every record still replay.
//
// The window this cannot close: a job's result reaches the
// content-addressed store (inside the runner) an instant before its row
// record reaches the journal. A crash in that window re-runs the job on
// resume and finds it in the cache, so the resumed row says cached where
// the uninterrupted run said simulated. The window is microseconds per
// job; the recovery smoke keeps it closed by construction (it kills the
// server between rows, not inside the commit pair).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/sweep"
)

// srvRec is one server journal record; fields are op-dependent.
type srvRec struct {
	Op string `json:"op"` // "submit", "row", "cancel" or "end"
	ID string `json:"id"`
	// submit fields. Spec is the accepted request body verbatim; replay
	// re-expands it, so the job list never has to be journaled.
	Name      string     `json:"name,omitempty"`
	Tenant    string     `json:"tenant,omitempty"`
	Pri       int        `json:"pri,omitempty"`
	Par       int        `json:"par,omitempty"`
	Spec      string     `json:"spec,omitempty"`
	Submitted *time.Time `json:"submitted,omitempty"`
	// row fields. Index is the job's position in the sweep's expansion;
	// Row is the full wire row.
	Index int        `json:"index,omitempty"`
	Row   *sweep.Row `json:"row,omitempty"`
	// end fields. The times are pointers so that omitempty leaves them
	// out of the records that do not carry them (it never omits a
	// time.Time value).
	State     string     `json:"state,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Recovered bool       `json:"recovered,omitempty"`
}

// timeOf returns *t, or the zero time for nil.
func timeOf(t *time.Time) time.Time {
	if t == nil {
		return time.Time{}
	}
	return *t
}

// srvSnapshot is the snapshot an older server's compaction wrote: the
// sweep-id counter plus the record log that rebuilds the sweep table.
type srvSnapshot struct {
	NextID  uint64   `json:"next_id"`
	Records []srvRec `json:"records,omitempty"`
	// Sweeps marks a snapshot from before record snapshots; its sweep
	// table is dropped (the results stay in the store).
	Sweeps json.RawMessage `json:"sweeps,omitempty"`
}

// recKeys and rowKeys are the JSON names of srvRec's and sweep.Row's
// fields, the names decodeRecord matches keys against.
var (
	recKeys = []string{"op", "id", "name", "tenant", "pri", "par", "spec",
		"submitted", "index", "row", "state", "finished", "recovered"}
	rowKeys = []string{"benchmark", "arch", "seed", "instructions", "cycles",
		"ipc", "mispredict_rate", "icache_miss_rate", "dcache_miss_rate", "key", "cached"}
)

// maxDepth is encoding/json's nesting limit: it rejects a payload whose
// arrays and objects nest deeper.
const maxDepth = 10000

// decodeRecord decodes one journal record payload into r, which must be
// zero, and reports whether json.Unmarshal(payload, r) succeeds; when it
// does, r holds what json.Unmarshal stores. It does json.Unmarshal's
// work without reflection, since recovery decodes every record of the
// log.
func decodeRecord(payload []byte, r *srvRec) bool {
	d := recDecoder{data: payload}
	ok := false
	switch d.peek() {
	case '{':
		ok = d.object(func(key []byte) bool { return d.recField(r, key) })
	case 'n':
		ok = d.literal("null") // leaves r zero, as json.Unmarshal does
	}
	// Any other top-level value is a type error.
	d.space()
	return ok && d.off == len(d.data)
}

// recDecoder is a cursor over one record payload. Its methods consume
// one value each and return false where json.Unmarshal would fail: on
// a syntax error, or on a value the field's type cannot hold (an error
// json.Unmarshal also reports, whatever follows). Every string it
// stores is a copy, since the payload is freed after the callback.
type recDecoder struct {
	data []byte
	off  int
}

func (d *recDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, or 0 at the end.
func (d *recDecoder) peek() byte {
	d.space()
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// literal consumes lit (true, false or null) at the cursor.
func (d *recDecoder) literal(lit string) bool {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return false
	}
	d.off += len(lit)
	return true
}

// recField decodes the value at the cursor into the record field that
// key names. Keys match the way encoding/json matches them: exactly,
// else case-insensitively (see foldKey); a key matching no field has
// its value skipped.
func (d *recDecoder) recField(r *srvRec, key []byte) bool {
	switch string(key) {
	case "op":
		return d.text(&r.Op)
	case "id":
		return d.text(&r.ID)
	case "name":
		return d.text(&r.Name)
	case "tenant":
		return d.text(&r.Tenant)
	case "pri":
		return d.integer(&r.Pri)
	case "par":
		return d.integer(&r.Par)
	case "spec":
		return d.text(&r.Spec)
	case "submitted":
		return d.stamp(&r.Submitted)
	case "index":
		return d.integer(&r.Index)
	case "row":
		return d.row(&r.Row)
	case "state":
		return d.text(&r.State)
	case "finished":
		return d.stamp(&r.Finished)
	case "recovered":
		return d.boolean(&r.Recovered)
	}
	name, ascii := foldKey(key, recKeys)
	if !ascii {
		return member(d, key, 2, r)
	}
	if name != "" && name != string(key) { // a name the switch lacks is skipped, not folded again
		return d.recField(r, []byte(name))
	}
	return d.skip(2)
}

// rowField is recField for the keys of a row.
func (d *recDecoder) rowField(row *sweep.Row, key []byte) bool {
	switch string(key) {
	case "benchmark":
		return d.text(&row.Benchmark)
	case "arch":
		return d.text(&row.Arch)
	case "seed":
		return d.unsigned(&row.Seed)
	case "instructions":
		return d.unsigned(&row.Instructions)
	case "cycles":
		return d.unsigned(&row.Cycles)
	case "ipc":
		return d.float(&row.IPC)
	case "mispredict_rate":
		return d.float(&row.MispredRate)
	case "icache_miss_rate":
		return d.float(&row.ICacheMiss)
	case "dcache_miss_rate":
		return d.float(&row.DCacheMiss)
	case "key":
		return d.text(&row.Key)
	case "cached":
		return d.boolean(&row.Cached)
	}
	name, ascii := foldKey(key, rowKeys)
	if !ascii {
		return member(d, key, 3, row)
	}
	if name != "" && name != string(key) { // a name the switch lacks is skipped, not folded again
		return d.rowField(row, []byte(name))
	}
	return d.skip(3)
}

// foldKey returns the name in names that an ASCII key equals under
// case folding, or "" for none. A key holding other bytes reports
// ascii false and is left to member: which non-ASCII runes
// encoding/json folds onto ASCII letters is its own choice and need not
// stay fixed across Go releases (go1.24 folds the Kelvin sign onto k
// and the long s onto s, but not the dotted or dotless i onto i).
func foldKey(key []byte, names []string) (name string, ascii bool) {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return "", false
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n, true
		}
	}
	return "", true
}

// member decodes the value at the cursor, which sits at nesting depth
// depth under a non-ASCII key, into *dst with json.Unmarshal of that one
// member, so the key matches a field (or none) exactly as the building
// toolchain's encoding/json matches it. No record the server writes has
// such a key.
func member[T any](d *recDecoder, key []byte, depth int, dst *T) bool {
	start := d.off
	if !d.skip(depth) {
		return false
	}
	k, _ := json.Marshal(string(key)) // key is valid UTF-8, so this round-trips
	obj := append(append(append(append([]byte{'{'}, k...), ':'), d.data[start:d.off]...), '}')
	v := new(T) // a copy, so that dst does not escape in every call
	*v = *dst
	err := json.Unmarshal(obj, v)
	*dst = *v
	return err == nil
}

// object consumes the object at the cursor, calling field with each
// key and the cursor on its value.
func (d *recDecoder) object(field func(key []byte) bool) bool {
	d.off++ // {
	if d.peek() == '}' {
		d.off++
		return true
	}
	for {
		if d.peek() != '"' {
			return false
		}
		tok, plain, ok := d.str()
		if !ok || d.peek() != ':' {
			return false
		}
		d.off++
		key := tok[1 : len(tok)-1]
		if !plain {
			key = []byte(unquote(tok, false))
		}
		if !field(key) {
			return false
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			return true
		default:
			return false
		}
	}
}

// skip consumes and validates the value at the cursor, which sits at
// nesting depth depth: an object or array there is the depth-th one
// open.
func (d *recDecoder) skip(depth int) bool {
	switch d.peek() {
	case '"':
		_, _, ok := d.str()
		return ok
	case '{':
		return depth <= maxDepth && d.object(func([]byte) bool { return d.skip(depth + 1) })
	case '[':
		if depth > maxDepth {
			return false
		}
		d.off++
		if d.peek() == ']' {
			d.off++
			return true
		}
		for {
			if !d.skip(depth + 1) {
				return false
			}
			switch d.peek() {
			case ',':
				d.off++
			case ']':
				d.off++
				return true
			default:
				return false
			}
		}
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, ok := d.number()
	return ok
}

// str consumes the string token at the cursor and returns it, quotes
// included. plain reports a token whose contents are its value: no
// escapes and valid UTF-8.
func (d *recDecoder) str() (tok []byte, plain, ok bool) {
	b, i := d.data, d.off+1
	ascii := true
	plain = true
	for {
		for i < len(b) && ' ' <= b[i] && b[i] < utf8.RuneSelf && b[i] != '"' && b[i] != '\\' {
			i++
		}
		if i >= len(b) {
			return nil, false, false
		}
		switch c := b[i]; {
		case c == '"':
			tok, d.off = b[d.off:i+1], i+1
			if !ascii && plain {
				plain = utf8.Valid(tok)
			}
			return tok, plain, true
		case c == '\\':
			plain = false
			if i++; i >= len(b) {
				return nil, false, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return nil, false, false
				}
				i += 4
			default:
				return nil, false, false
			}
		case c < ' ':
			return nil, false, false
		default:
			ascii = false
		}
		i++
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the value of a string token str consumed as a new
// string. A token that is not plain goes to json.Unmarshal, which
// decodes its escapes and replaces invalid UTF-8 as it does for fields.
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	_ = json.Unmarshal(tok, &s) // cannot fail on a token str accepted
	return s
}

// number consumes the number token at the cursor by the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *recDecoder) number() ([]byte, bool) {
	b, i := d.data, d.off
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	tok := b[d.off:i]
	d.off = i
	return tok, true
}

// The scalar decoders below fill a field the way encoding/json does:
// null leaves it as it is, a number goes through strconv, and a value
// of any other JSON type is a type error.

func (d *recDecoder) text(dst *string) bool {
	switch d.peek() {
	case '"':
		tok, plain, ok := d.str()
		if ok {
			*dst = unquote(tok, plain)
		}
		return ok
	case 'n':
		return d.literal("null")
	}
	return false
}

func (d *recDecoder) boolean(dst *bool) bool {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return false
}

func (d *recDecoder) integer(dst *int) bool {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	tok, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *recDecoder) unsigned(dst *uint64) bool {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	tok, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = n
	return err == nil
}

func (d *recDecoder) float(dst *float64) bool {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	tok, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}

// stamp fills a *time.Time field: null stores nil, and any other value
// goes, as its raw token, to time.Time.UnmarshalJSON, which accepts
// only strings.
func (d *recDecoder) stamp(dst **time.Time) bool {
	switch d.peek() {
	case '"':
		tok, _, ok := d.str()
		t := new(time.Time)
		if !ok || t.UnmarshalJSON(tok) != nil {
			return false
		}
		*dst = t
		return true
	case 'n':
		*dst = nil
		return d.literal("null")
	}
	return false
}

// row fills the row field: null stores nil, and an object decodes into
// the row already there, as encoding/json does with a repeated key.
func (d *recDecoder) row(dst **sweep.Row) bool {
	switch d.peek() {
	case '{':
		if *dst == nil {
			*dst = new(sweep.Row)
		}
		row := *dst
		return d.object(func(key []byte) bool { return d.rowField(row, key) })
	case 'n':
		*dst = nil
		return d.literal("null")
	}
	return false
}

// journalAppend writes one record. Callers append before they
// acknowledge or show a transition: a submit before its ack is written,
// a row or a cancel before the run holds it. Append errors degrade to
// running unjournaled — the WAL poisons itself after the first write
// error, so the cost stays one failed syscall per record.
func (s *Server) journalAppend(r srvRec) {
	if j := s.cfg.Journal; j != nil {
		if b, err := json.Marshal(r); err == nil {
			j.Append(b)
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// replaySweep is one sweep being rebuilt during recovery. spec is its
// parsed spec, held only until the sweep resumes or settles.
type replaySweep struct {
	run  *sweepRun
	spec *sweep.Spec
}

// jobs re-expands the sweep's spec and checks it against the row table
// replay sized from the spec's job count.
func (rs *replaySweep) jobs() ([]sweep.Job, error) {
	jobs, err := rs.spec.Jobs()
	if err == nil && len(jobs) != len(rs.run.rows) {
		err = fmt.Errorf("spec expands to %d jobs but counts %d", len(jobs), len(rs.run.rows))
	}
	return jobs, err
}

// recoverJournal rebuilds the sweep table from the journal and resumes
// every sweep the crash interrupted. Called from New before the server
// is visible; the returned error means the snapshot itself was
// unreadable (records are skipped individually).
func (s *Server) recoverJournal() error {
	start := time.Now()
	runs := make(map[string]*replaySweep)
	var order []string
	apply := func(r srvRec) {
		rs := runs[r.ID]
		switch r.Op {
		case "submit":
			if rs != nil {
				return // a submit that raced a compaction sits in both snapshot and log
			}
			spec, err := sweep.ParseSpec(strings.NewReader(r.Spec))
			if err != nil {
				s.logf("rfserved: journaled sweep %s no longer parses; dropping it: %v", r.ID, err)
				return
			}
			count, _, err := s.jobCount(spec)
			if err != nil {
				s.logf("rfserved: journaled sweep %s is no longer admissible; dropping it: %v", r.ID, err)
				return
			}
			runs[r.ID] = &replaySweep{spec: spec, run: &sweepRun{
				id: r.ID, name: r.Name, tenant: r.Tenant, priority: r.Pri,
				parallelism: r.Par, spec: r.Spec, rows: make([]sweep.Row, count),
				state: stateRunning, submitted: timeOf(r.Submitted), notify: make(chan struct{}),
			}}
			order = append(order, r.ID)
			if n := idNumber(r.ID); n > s.nextID {
				s.nextID = n
			}
		case "row":
			if rs != nil && r.Row != nil && r.Row.Key != "" && r.Index >= 0 && r.Index < len(rs.run.rows) {
				rs.run.setRowLocked(r.Index, *r.Row)
			}
		case "cancel":
			if rs != nil {
				rs.run.canceling = true
			}
		case "end":
			if rs != nil {
				rs.run.state, rs.run.finished = sweepState(r.State), timeOf(r.Finished)
				rs.run.recovered = r.Recovered
			}
		}
	}

	if data, _, ok := s.cfg.Journal.Snapshot(); ok {
		var snap srvSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("rfserved: corrupt journal snapshot: %w", err)
		}
		s.nextID = snap.NextID
		if snap.Sweeps != nil {
			s.logf("rfserved: journal snapshot predates record snapshots; dropping its sweep table (results stay in the store)")
		}
		for _, r := range snap.Records {
			apply(r)
		}
	}
	_ = s.cfg.Journal.Replay(func(_ uint64, payload []byte) error { // errors only if the callback does
		var r srvRec
		if decodeRecord(payload, &r) { // skip a foreign or damaged record
			apply(r)
		}
		return nil
	})

	// Materialize and resume. A sweep the crash interrupted restarts
	// with only its unfinished jobs; quota re-acquisition is unlimited —
	// recovery must never be refused admission for work that was already
	// admitted once.
	for _, id := range order {
		rs := runs[id]
		run := rs.run
		// Terminal (or immediately-settled) sweeps still get a cancel hook:
		// handleCancel calls it unconditionally.
		run.cancel = func() {}
		if run.state == stateRunning {
			run.recovered = true
			if run.canceling || run.completed == len(run.rows) {
				// Nothing left to run: settle the terminal state directly.
				run.state = stateDone
				if run.canceling {
					run.state = stateCanceled
				}
				run.finished = time.Now()
				s.journalAppend(srvRec{Op: "end", ID: id, State: string(run.state),
					Finished: &run.finished, Recovered: true})
			}
		}
		if run.state != stateRunning {
			s.sweeps[id] = run
			s.order = append(s.order, id)
			if wh := s.cfg.Warehouse; wh != nil && run.state == stateDone && !wh.Has(id) {
				if jobs, err := rs.jobs(); err != nil {
					s.logf("rfserved: warehouse rebuild of sweep %s failed: %v", id, err)
				} else {
					s.warehouseRebuildDone(run, jobs)
				}
			}
			continue
		}
		jobs, err := rs.jobs()
		if err != nil {
			s.logf("rfserved: journaled sweep %s no longer expands; dropping it: %v", id, err)
			continue
		}
		s.sweeps[id] = run
		s.order = append(s.order, id)
		remaining := len(run.rows) - run.completed
		if run.parallelism <= 0 || run.parallelism > s.cfg.MaxSweepWorkers {
			run.parallelism = s.cfg.MaxSweepWorkers
		}
		s.active.Acquire(run.tenant, 1, 0)
		s.queued.Acquire(run.tenant, remaining, 0)
		// Pre-populate the warehouse builder before execute can publish
		// rows, so live Adds never race an absent builder.
		s.warehousePrepareResume(run, jobs)
		ctx, cancel := context.WithCancel(s.ctx)
		run.cancel = cancel
		s.wg.Add(1)
		go s.execute(ctx, run, jobs)
		s.logf("rfserved: resuming sweep %s (%d of %d jobs journaled complete)",
			id, run.completed, len(run.rows))
	}
	// The duration covers decoding and applying the records and resuming
	// the sweeps; Stats.ReplayDuration times only the WAL's segment scan.
	if st := s.cfg.Journal.Stats(); st.Replayed > 0 || len(order) > 0 {
		s.logf("rfserved: journal replayed %d records in %s (%d sweeps, %d bytes truncated)",
			st.Replayed, time.Since(start).Round(time.Millisecond), len(order), st.TruncatedBytes)
	}
	return nil
}

// idNumber parses the numeric part of a sweep id ("s%06d").
func idNumber(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "s%d", &n); err != nil {
		return 0
	}
	return n
}

// walJournals returns the journal labels for /metrics, sorted: the
// server's own journal plus any extra journals wired in for exposure
// (the coordinator's, in cmd/rfserved).
func (s *Server) walJournals() []string {
	names := make([]string, 0, len(s.cfg.ExtraJournals)+1)
	if s.cfg.Journal != nil {
		names = append(names, "server")
	}
	for name, j := range s.cfg.ExtraJournals {
		if j != nil && name != "server" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
