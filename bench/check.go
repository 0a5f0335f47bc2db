package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/sweep"
	"repro/internal/warehouse"
	"repro/rf/api"
)

// expect is what one sweep's stream must be: exactly one row per job,
// keyed by Job.Key() in job order and, when warm is known, byte-identical
// to the fully cached stream derived from the fixture's own rows.
type expect struct {
	keys []string
	warm []byte
}

func expectFor(spec *sweep.Spec) (*expect, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	e := &expect{keys: make([]string, len(jobs))}
	for i := range jobs {
		e.keys[i] = string(jobs[i].Key())
	}
	return e, nil
}

// learn records a checked cold stream as the reference for later warm
// resubmits: every row flips to cached, nothing else may change.
func (e *expect) learn(cold []byte) {
	e.warm = bytes.ReplaceAll(cold, []byte(`,"cached":false}`), []byte(`,"cached":true}`))
}

func (e *expect) check(stream []byte) error {
	if e.warm != nil && bytes.Equal(stream, e.warm) {
		return nil
	}
	lines := splitLines(stream)
	if len(lines) != len(e.keys) {
		return fmt.Errorf("%d rows for %d jobs", len(lines), len(e.keys))
	}
	for i, l := range lines {
		if k := rowKey(l); k != e.keys[i] {
			return fmt.Errorf("row %d has key %.12s, job key is %.12s", i, k, e.keys[i])
		}
	}
	if e.warm != nil {
		for i, l := range splitLines(e.warm) {
			if !bytes.Equal(lines[i], l) {
				return fmt.Errorf("row %d differs from the fixture's: %s", i, lines[i])
			}
		}
	}
	return nil
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			out = append(out, b)
			break
		}
		out = append(out, b[:i+1])
		b = b[i+1:]
	}
	return out
}

// rowKey extracts the "key" field of one NDJSON row without decoding it.
func rowKey(line []byte) string {
	const field = `"key":"`
	i := bytes.Index(line, []byte(field))
	if i < 0 {
		return ""
	}
	rest := line[i+len(field):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// digest hashes rows with the delivery-provenance "cached" field dropped:
// what was simulated, not how it reached the client.
type digest struct{ h []byte }

func (d *digest) add(stream []byte) {
	s := bytes.ReplaceAll(stream, []byte(`,"cached":false}`), []byte("}"))
	d.h = append(d.h, bytes.ReplaceAll(s, []byte(`,"cached":true}`), []byte("}"))...)
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:])
}

// queryExpect holds the answers of every query document over a single
// copy of the fixture grid. Every sealed segment of query-mix holds the
// same rows, so a server answer over k segments must match: the same
// groups, series and frontier with means equal up to summation rounding,
// counts k times larger, and rows copied verbatim.
type queryExpect struct {
	base    map[string]*api.QueryResult // by op
	rows    map[string]api.QueryRow     // by key
	perSeg  int                         // rows per segment
	minSegs int                         // segments sealed before the phase
}

func newQueryExpect(spec *sweep.Spec, stream []byte, minSegs int) (*queryExpect, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	rows, err := sweep.ReadRows(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	seg, err := warehouse.SegmentFromRows("s000001", spec.Name, jobs, rows)
	if err != nil {
		return nil, err
	}
	qe := &queryExpect{base: map[string]*api.QueryResult{}, rows: map[string]api.QueryRow{},
		perSeg: len(rows), minSegs: minSegs}
	for _, doc := range queryDocs {
		q, err := warehouse.ParseQuery([]byte(doc))
		if err != nil {
			return nil, err
		}
		if q.Op == api.QueryOpRows {
			q.Limit = 10000
		}
		res, err := warehouse.Eval([]*warehouse.Segment{seg}, q)
		if err != nil {
			return nil, err
		}
		qe.base[q.Op] = res
		for _, r := range res.Rows {
			r.Sweep = ""
			qe.rows[r.Key] = r
		}
	}
	return qe, nil
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// check validates one server answer to query doc q.
func (qe *queryExpect) check(q *api.Query, got *api.QueryResult) error {
	want := qe.base[q.Op]
	per := want.Matched
	if got.Op != q.Op || got.Matched%per != 0 || got.Matched/per < qe.minSegs {
		return fmt.Errorf("%s: matched %d rows, want a multiple ≥%d of %d", q.Op, got.Matched, qe.minSegs, per)
	}
	k := got.Matched / per
	bad := func(what string, args ...any) error {
		return fmt.Errorf("%s: %s", q.Op, fmt.Sprintf(what, args...))
	}
	switch q.Op {
	case api.QueryOpSeries:
		if len(got.Series) != len(want.Series) {
			return bad("%d series, want %d", len(got.Series), len(want.Series))
		}
		for i, s := range got.Series {
			w := want.Series[i]
			if s.Arch != w.Arch || len(s.Points) != len(w.Points) || !near(s.IntHmean, w.IntHmean) || !near(s.FPHmean, w.FPHmean) {
				return bad("series %q differs", s.Arch)
			}
			for j, p := range s.Points {
				if p.Benchmark != w.Points[j].Benchmark || !near(p.IPC, w.Points[j].IPC) {
					return bad("series %q point %s differs", s.Arch, p.Benchmark)
				}
			}
		}
	case api.QueryOpAggregate:
		if len(got.Groups) != len(want.Groups) {
			return bad("%d groups, want %d", len(got.Groups), len(want.Groups))
		}
		for i, g := range got.Groups {
			w := want.Groups[i]
			if strings.Join(g.Key, "/") != strings.Join(w.Key, "/") || g.Count != k*w.Count || !near(g.Values["mean_ipc"], w.Values["mean_ipc"]) {
				return bad("group %v differs", g.Key)
			}
		}
	case api.QueryOpPareto:
		if len(got.Frontier) != len(want.Frontier) {
			return bad("%d frontier points, want %d", len(got.Frontier), len(want.Frontier))
		}
		for i, p := range got.Frontier {
			w := want.Frontier[i]
			if p.Arch != w.Arch || !near(p.IPC, w.IPC) || !near(p.Area, w.Area) {
				return bad("frontier point %q differs", p.Arch)
			}
		}
	case api.QueryOpRows:
		if len(got.Rows) != min(q.Limit, got.Matched) {
			return bad("%d rows on the page, want %d", len(got.Rows), min(q.Limit, got.Matched))
		}
		for _, r := range got.Rows {
			w, ok := qe.rows[r.Key]
			r.Sweep = ""
			if !ok || r != w {
				return bad("row %.12s differs from the fixture's", r.Key)
			}
		}
	}
	return nil
}
