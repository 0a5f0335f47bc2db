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
// The window this cannot close: a job's result reaches the
// content-addressed store (inside the runner) an instant before its row
// record reaches the journal. A crash in that window re-runs the job on
// resume and finds it in the cache, so the resumed row says cached where
// the uninterrupted run said simulated. The window is microseconds per
// job; the recovery smoke keeps it closed by construction (it kills the
// server between rows, not inside the commit pair).

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

// srvRec is one server journal record; fields are op-dependent.
type srvRec struct {
	Op string `json:"op"` // "submit", "row", "cancel" or "end"
	ID string `json:"id"`
	// submit fields. Spec is the accepted request body verbatim; replay
	// re-expands it, so the job list never has to be journaled.
	Name      string    `json:"name,omitempty"`
	Tenant    string    `json:"tenant,omitempty"`
	Pri       int       `json:"pri,omitempty"`
	Par       int       `json:"par,omitempty"`
	Spec      string    `json:"spec,omitempty"`
	Submitted time.Time `json:"submitted,omitempty"`
	// row fields. Index is the job's position in the sweep's expansion;
	// Row is the full wire row.
	Index int        `json:"index,omitempty"`
	Row   *sweep.Row `json:"row,omitempty"`
	// end fields.
	State     string    `json:"state,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Recovered bool      `json:"recovered,omitempty"`
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
				state: stateRunning, submitted: r.Submitted, notify: make(chan struct{}),
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
				rs.run.state, rs.run.finished = sweepState(r.State), r.Finished
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
		if json.Unmarshal(payload, &r) == nil { // skip a foreign or damaged record
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
					Finished: run.finished, Recovered: true})
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
	if st := s.cfg.Journal.Stats(); st.Replayed > 0 || len(order) > 0 {
		s.logf("rfserved: journal replayed %d records in %s (%d sweeps, %d bytes truncated)",
			st.Replayed, st.ReplayDuration.Round(time.Millisecond), len(order), st.TruncatedBytes)
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
