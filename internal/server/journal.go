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
// Records are binary (encodeRecord has the layout): a tag byte naming
// the op, the sweep id, then only the fields that op carries. No JSON
// record starts with a tag byte, so decodeRecord hands any other
// payload to json.Unmarshal: journals that older servers wrote in JSON,
// with or without zero timestamps in every record, still replay.
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
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/sweep"
)

// srvRec is one server journal record; fields are op-dependent. The
// JSON tags decode the records and snapshots older servers wrote.
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
	// end fields. The times are pointers so that a record can carry
	// none: omitempty never omits a time.Time value.
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

// tagOps names the op of each tag byte, the first byte of a binary
// record. No JSON record starts with a tag, since json.Marshal writes
// '{' first.
var tagOps = [...]string{1: "submit", 2: "row", 3: "cancel", 4: "end"}

// encodeRecord renders r as a binary record: the tag byte of its op,
// the sweep id, and the fields its op carries, in srvRec's order.
// Strings are uvarint-length-prefixed, ints are varints, the row's
// counters are uvarints, its floats are little-endian IEEE bits, bools
// are one byte, and a timestamp is time.Time.MarshalBinary as a
// length-prefixed string, empty for none. A row record with no row
// carries a zero one.
func encodeRecord(r srvRec) ([]byte, error) {
	tag := slices.Index(tagOps[:], r.Op)
	if tag < 1 {
		return nil, fmt.Errorf("server: no journal record encoding for op %q", r.Op)
	}
	b := appendString(append(make([]byte, 0, 160+len(r.Spec)), byte(tag)), r.ID)
	var err error
	switch r.Op {
	case "submit":
		b = appendString(appendString(b, r.Name), r.Tenant)
		b = binary.AppendVarint(binary.AppendVarint(b, int64(r.Pri)), int64(r.Par))
		b, err = appendTime(appendString(b, r.Spec), r.Submitted)
	case "row":
		var row sweep.Row
		if r.Row != nil {
			row = *r.Row
		}
		b = binary.AppendVarint(b, int64(r.Index))
		b = appendString(appendString(b, row.Benchmark), row.Arch)
		for _, v := range [...]uint64{row.Seed, row.Instructions, row.Cycles} {
			b = binary.AppendUvarint(b, v)
		}
		for _, f := range [...]float64{row.IPC, row.MispredRate, row.ICacheMiss, row.DCacheMiss} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		b = appendBool(appendString(b, row.Key), row.Cached)
	case "end":
		b, err = appendTime(appendString(b, r.State), r.Finished)
		b = appendBool(b, r.Recovered)
	}
	return b, err
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTime(b []byte, t *time.Time) ([]byte, error) {
	if t == nil {
		return appendString(b, ""), nil
	}
	p, err := t.MarshalBinary()
	return append(binary.AppendUvarint(b, uint64(len(p))), p...), err
}

// decodeRecord decodes one journal record payload into r, which must be
// zero, and reports whether the payload is a well-formed record. A
// payload that starts with a tag byte is binary and must be exactly
// what encodeRecord writes for the record it decodes to; any other is
// a JSON record from an older server, decoded by json.Unmarshal.
func decodeRecord(payload []byte, r *srvRec) bool {
	if len(payload) == 0 || int(payload[0]) >= len(tagOps) || tagOps[payload[0]] == "" {
		return json.Unmarshal(payload, r) == nil
	}
	d := recReader{b: payload[1:]}
	r.Op, r.ID = tagOps[payload[0]], d.str()
	switch r.Op {
	case "submit":
		r.Name, r.Tenant, r.Pri, r.Par = d.str(), d.str(), d.int(), d.int()
		r.Spec, r.Submitted = d.str(), d.time()
	case "row":
		r.Index = d.int()
		r.Row = &sweep.Row{Benchmark: d.str(), Arch: d.str(),
			Seed: d.uvarint(), Instructions: d.uvarint(), Cycles: d.uvarint(),
			IPC: d.float(), MispredRate: d.float(), ICacheMiss: d.float(), DCacheMiss: d.float(),
			Key: d.str(), Cached: d.bool()}
	case "end":
		r.State, r.Finished, r.Recovered = d.str(), d.time(), d.bool()
	}
	return !d.bad && len(d.b) == 0
}

// recReader is a bounds-checked cursor over the fields of a binary
// record. A field that runs past the payload, or is not in the form
// encodeRecord writes, marks the record bad. Strings are copies: the
// WAL frees the payload after the callback.
type recReader struct {
	b   []byte
	bad bool
}

// next consumes n bytes, or marks the record bad if fewer are left.
func (d *recReader) next(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.bad = true
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// uvarint reads a uvarint, or marks the record bad unless it is whole
// and in the shortest form, the one encodeRecord writes.
func (d *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a zig-zag varint, as binary.AppendVarint writes it.
func (d *recReader) int() int {
	u := d.uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

func (d *recReader) str() string {
	return string(d.next(d.uvarint()))
}

func (d *recReader) float() float64 {
	if p := d.next(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (d *recReader) bool() bool {
	p := d.next(1)
	d.bad = d.bad || p != nil && p[0] > 1
	return p != nil && p[0] == 1
}

// time reads a length-prefixed time.Time.MarshalBinary, nil when empty.
// It takes only the bytes MarshalBinary writes back: UnmarshalBinary
// also accepts nanoseconds and zone offsets that do not round-trip.
func (d *recReader) time() *time.Time {
	p := d.next(d.uvarint())
	if len(p) == 0 {
		return nil
	}
	t := new(time.Time)
	err := t.UnmarshalBinary(p)
	if q, _ := t.MarshalBinary(); err != nil || !bytes.Equal(p, q) {
		d.bad = true
	}
	return t
}

// journalAppend writes one record. Callers append before they
// acknowledge or show a transition: a submit before its ack is written,
// a row or a cancel before the run holds it. Append errors degrade to
// running unjournaled — the WAL poisons itself after the first write
// error, so the cost stays one failed syscall per record.
func (s *Server) journalAppend(r srvRec) {
	if j := s.cfg.Journal; j != nil {
		if b, err := encodeRecord(r); err == nil {
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
