package warehouse

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/rf/api"
)

// FuzzParseQuery hardens the query document parser: whatever bytes a
// tenant posts to /v1/query, ParseQuery must either reject them or
// return a document that re-validates cleanly and evaluates without
// panicking — over an empty warehouse, over a populated segment, and
// over mixedSegments, whose dictionaries differ between segments. Over
// mixedSegments the document's filters must also match the same rows
// under every op, its aggregate groups must count exactly those rows,
// and a scan advanced over a prefix of the segments, then over the
// rest, must answer as one Eval. The committed corpus under testdata/fuzz seeds one document per
// op, the rejection classes the unit tests pin, and multi-segment
// group-by and filter mixes.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"op": "rows", "limit": 5, "cursor": "10"}`,
		`{"schema": 1, "op": "aggregate", "group_by": ["family", "suite"], "metrics": [{"op": "mean", "metric": "ipc"}, {"op": "max", "metric": "area"}]}`,
		`{"op": "series", "sweep": "s000001", "benchmarks": ["compress", "swim"]}`,
		`{"op": "pareto", "families": ["rfcache"], "dims": {"read_ports": [4, 8], "buses": [2]}}`,
		`{"op": "drop"}`,
		`{"schema": 99}`,
		`{"op": "rows"} trailing`,
		`{"dims": {"read_ports": [-1]}}`,
		`{"cursor": "abc"}`,
		`{`,
		`[]`,
		`null`,
		`{"metrics": [{"op": "mean", "metric": "speed"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	jobs, rows := testJobsRows(f)
	seg := buildSegment(f, "s000001", "", jobs, rows)
	segSets := [][]*Segment{nil, {seg}}
	mixed := mixedSegments(f)

	f.Fuzz(func(t *testing.T, doc []byte) {
		q, err := ParseQuery(doc)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("ParseQuery returned nil query without error")
		}
		if err := ValidateQuery(q); err != nil {
			t.Fatalf("accepted document fails re-validation: %v\ndoc: %s", err, doc)
		}
		for _, segs := range segSets {
			res, err := Eval(segs, q)
			if err != nil {
				t.Fatalf("accepted document fails Eval: %v\ndoc: %s", err, doc)
			}
			if res == nil {
				t.Fatalf("Eval returned nil result for doc: %s", doc)
			}
		}
		matched := -1
		for _, op := range []string{api.QueryOpRows, api.QueryOpAggregate, api.QueryOpSeries, api.QueryOpPareto} {
			qo := *q
			qo.Op = op
			res, err := Eval(mixed, &qo)
			if err != nil {
				t.Fatalf("op %s: %v\ndoc: %s", op, err, doc)
			}
			if matched >= 0 && res.Matched != matched {
				t.Fatalf("op %s matched %d rows, op rows %d\ndoc: %s", op, res.Matched, matched, doc)
			}
			matched = res.Matched
			// A scan resumed at a point the input picks answers as one
			// Eval, even when it rendered an answer at that point.
			k := len(doc) % (len(mixed) + 1)
			e, err := newEvalState(&qo)
			if err != nil {
				t.Fatal(err)
			}
			e.advance(mixed[:k])
			e.result()
			e.advance(mixed[k:])
			if got, want := mustJSON(t, e.result()), mustJSON(t, res); got != want {
				t.Fatalf("op %s resumed after %d segments:\n got %s\nwant %s\ndoc: %s", op, k, got, want, doc)
			}
			if op == api.QueryOpAggregate {
				n := 0
				for _, g := range res.Groups {
					n += g.Count
				}
				if n != res.Matched {
					t.Fatalf("aggregate groups count %d rows, matched %d\ndoc: %s", n, res.Matched, doc)
				}
			}
		}
	})
}

// FuzzDecodeSegment hardens log replay: whatever bytes a log record
// holds, decoding must return an error, a drop record, or a segment —
// never panic. A drop record must not also decode as a segment. An
// accepted segment must re-encode to bytes that decode to an equal
// segment, i.e. one whose own encoding is the same bytes. The committed
// corpus under testdata/fuzz seeds the row-count overflow crasher, a
// 108-row Figure 6 segment and a drop record.
func FuzzDecodeSegment(f *testing.F) {
	jobs, rows := testJobsRows(f)
	f.Add(buildSegment(f, "s000001", "acme", jobs, rows).encode())
	f.Add(overflowSegment())
	f.Add(dropRecord("s000001"))
	f.Add([]byte(segMagic + segTrail))

	f.Fuzz(func(t *testing.T, rec []byte) {
		seg, drop, err := decodeRecord(rec)
		if err != nil {
			return
		}
		if seg == nil {
			if _, err := decodeSegment(rec); err == nil {
				t.Fatalf("drop record of %q also decodes as a segment", drop)
			}
			return
		}
		if seg.size != len(rec) {
			t.Fatalf("decoded size %d, record is %d bytes", seg.size, len(rec))
		}
		enc := seg.encode()
		back, err := decodeSegment(enc)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if back.Sweep != seg.Sweep || back.Name != seg.Name || back.Tenant != seg.Tenant || back.N != seg.N {
			t.Fatalf("identity %q/%q/%q/%d came back as %q/%q/%q/%d",
				seg.Sweep, seg.Name, seg.Tenant, seg.N, back.Sweep, back.Name, back.Tenant, back.N)
		}
		if again := back.encode(); !bytes.Equal(again, enc) {
			t.Fatalf("re-decoded segment encodes differently:\n%q\n%q", enc, again)
		}
	})
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
