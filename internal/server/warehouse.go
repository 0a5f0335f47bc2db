package server

import (
	"io"
	"net/http"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/warehouse"
)

// handleQuery serves GET/POST /v1/query over the warehouse: GET carries
// the query document URL-encoded in the q parameter, POST carries it as
// the body. Authentication and rate limiting match the rest of the
// surface; in tenanted mode a caller only sees its own sweeps' segments
// (the anonymous tenant is one shared identity, as for streams).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tn := s.authTenant(w, r)
	if tn == nil {
		return
	}
	if !s.rateLimit(w, tn) {
		return
	}
	var doc []byte
	if r.Method == http.MethodGet {
		qs := r.URL.Query().Get("q")
		if qs == "" {
			writeError(w, http.StatusBadRequest, "rfserved: missing q parameter (URL-encoded query JSON)")
			return
		}
		doc = []byte(qs)
	} else {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "rfserved: bad query body: %v", err)
			return
		}
		doc = data
	}
	q, err := warehouse.ParseQuery(doc)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.cfg.Warehouse.Query(q, tn.Name, s.tenanted())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// warehouseRebuildDone re-indexes one journal-recovered done sweep that
// has no sealed segment (warehouse directory deleted, segment corrupt,
// or the crash predates the seal) from its re-expanded jobs. Each job's
// row is re-derived from the content-addressed store, falling back to
// the journaled row — the rebuildability invariant: the warehouse is a
// view, never a source. Called during recovery, before the sweep's run
// is shared.
func (s *Server) warehouseRebuildDone(run *sweepRun, jobs []sweep.Job) {
	get := func(k sweep.Key) (sim.Result, bool) {
		if s.cfg.Cache == nil {
			return sim.Result{}, false
		}
		return s.cfg.Cache.Get(k)
	}
	if err := s.cfg.Warehouse.RebuildSweep(run.id, run.name, run.tenant, jobs, run.rows, get); err != nil {
		s.logf("rfserved: warehouse rebuild of sweep %s failed: %v", run.id, err)
		return
	}
	s.logf("rfserved: warehouse rebuilt sweep %s (%d rows) from the store", run.id, len(jobs))
}

// warehousePrepareResume opens a resuming sweep's index builder and
// pre-populates it with the journaled rows, so the live ingest seam in
// execute supplies only the jobs the crash interrupted and the eventual
// seal covers the whole sweep. Must run before the sweep's execute
// goroutine starts.
func (s *Server) warehousePrepareResume(run *sweepRun, jobs []sweep.Job) {
	wh := s.cfg.Warehouse
	if wh == nil {
		return
	}
	wh.Begin(run.id, run.name, run.tenant, len(jobs))
	for i, row := range run.rows {
		if row.Key != "" {
			wh.Add(run.id, i, jobs[i], row)
		}
	}
}
