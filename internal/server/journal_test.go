package server

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/wal"
)

// writtenRecords returns one payload of every record kind the server
// journals, marshaled as journalAppend marshals them.
func writtenRecords(t testing.TB) [][]byte {
	t.Helper()
	submitted := time.Date(2024, 5, 1, 12, 30, 0, 123456789, time.FixedZone("", 2*3600))
	finished := time.Date(2024, 5, 1, 12, 31, 7, 0, time.UTC)
	row := sweep.Row{Benchmark: "compress", Arch: "1-cycle R∞W∞", Seed: 7, Instructions: 120000,
		Cycles: 98765, IPC: 1.2150306283602502, MispredRate: 0.0731, ICacheMiss: 0.0012345,
		DCacheMiss: 4.5e-7, Key: "ddc1aea79425326c459363433683132193b2b03cf499bfd0ae0ee734ea1c8cfb", Cached: true}
	var out [][]byte
	for _, r := range []srvRec{
		{Op: "submit", ID: "s000001", Name: "grid", Tenant: "team-a", Pri: 2, Par: 4,
			Spec: gridSpec, Submitted: &submitted},
		{Op: "row", ID: "s000001", Index: 107, Row: &row},
		{Op: "row", ID: "s000001", Row: &sweep.Row{Benchmark: "swim", Arch: "2-cycle", Key: "k"}},
		{Op: "cancel", ID: "s000001"},
		{Op: "end", ID: "s000001", State: string(stateCanceled), Finished: &finished, Recovered: true},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeRecord checks decodeRecord against json.Unmarshal into a
// srvRec: on every input both accept or both reject, and on accept they
// store reflect.DeepEqual records. The seeds are the records the server
// writes; the committed corpus holds the inputs no server writes:
// unknown, case-variant and duplicate keys, nulls, type mismatches, bad
// numbers, escapes, invalid UTF-8 and deep nesting.
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range writtenRecords(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got, want srvRec
		ok := decodeRecord(payload, &got)
		wantOK := json.Unmarshal(payload, &want) == nil
		if ok != wantOK {
			t.Fatalf("decodeRecord accepts %t, json.Unmarshal %t: %q", ok, wantOK, payload)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord(%q)\n got %+v\nwant %+v", payload, got, want)
		}
	})
}

// TestDecodeRecordEveryField decodes a record with every field of srvRec
// and sweep.Row set, once with its keys as written and once upper-cased,
// and wants what json.Unmarshal stores: a field that recField or
// rowField lacks comes back zero, and one that recKeys or rowKeys lacks
// does not match its upper-cased key.
func TestDecodeRecordEveryField(t *testing.T) {
	at := time.Date(2024, 5, 1, 12, 30, 0, 0, time.UTC)
	row := sweep.Row{Benchmark: "gcc", Arch: "rfcache", Seed: 1, Instructions: 2, Cycles: 3,
		IPC: 0.5, MispredRate: 0.25, ICacheMiss: 0.125, DCacheMiss: 0.0625, Key: "k", Cached: true}
	rec := srvRec{Op: "end", ID: "s000001", Name: "n", Tenant: "t", Pri: 1, Par: 2, Spec: "{}",
		Submitted: &at, Index: 3, Row: &row, State: "done", Finished: &at, Recovered: true}
	for _, v := range []reflect.Value{reflect.ValueOf(rec), reflect.ValueOf(row)} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s is zero here; set it", v.Type(), v.Type().Field(i).Name)
			}
		}
	}
	written, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	upper := written
	for _, typ := range []reflect.Type{reflect.TypeOf(rec), reflect.TypeOf(row)} {
		for i := 0; i < typ.NumField(); i++ {
			k, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			upper = bytes.ReplaceAll(upper, []byte(`"`+k+`":`), []byte(`"`+strings.ToUpper(k)+`":`))
		}
	}
	for _, p := range [][]byte{written, upper} {
		var got, want srvRec
		if err := json.Unmarshal(p, &want); err != nil {
			t.Fatal(err)
		}
		if !decodeRecord(p, &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("decodeRecord(%s)\n got %+v %+v\nwant %+v %+v", p, got, got.Row, want, want.Row)
		}
	}
}

// TestDecodeRecordNestingLimit skips unknown values nested right at
// encoding/json's depth limit, at the top level and inside a row, and
// wants json.Unmarshal's verdict on each.
func TestDecodeRecordNestingLimit(t *testing.T) {
	for _, c := range []struct{ prefix, suffix string }{
		{`{"op":"row","x":`, `}`},         // the unknown value opens at depth 2
		{`{"op":"row","row":{"x":`, `}}`}, // and here at depth 3
	} {
		for n := maxDepth - 3; n <= maxDepth; n++ {
			p := []byte(c.prefix + strings.Repeat("[", n) + strings.Repeat("]", n) + c.suffix)
			var got, want srvRec
			ok, wantOK := decodeRecord(p, &got), json.Unmarshal(p, &want) == nil
			if ok != wantOK || ok && !reflect.DeepEqual(got, want) {
				t.Errorf("%s with %d arrays: decodeRecord accepts %t, json.Unmarshal %t", c.prefix, n, ok, wantOK)
			}
		}
	}
}

// legacyRec is srvRec as servers that journaled zero timestamps wrote
// it: omitempty never omits a time.Time, so every record carries both.
type legacyRec struct {
	Op        string     `json:"op"`
	ID        string     `json:"id"`
	Name      string     `json:"name,omitempty"`
	Tenant    string     `json:"tenant,omitempty"`
	Pri       int        `json:"pri,omitempty"`
	Par       int        `json:"par,omitempty"`
	Spec      string     `json:"spec,omitempty"`
	Submitted time.Time  `json:"submitted,omitempty"`
	Index     int        `json:"index,omitempty"`
	Row       *sweep.Row `json:"row,omitempty"`
	State     string     `json:"state,omitempty"`
	Finished  time.Time  `json:"finished,omitempty"`
	Recovered bool       `json:"recovered,omitempty"`
}

// TestReplayLegacyZeroTimestamps replays the same two sweeps journaled
// in the current shape and in the older one with zero timestamps in
// every record, and wants the same sweep table from both.
func TestReplayLegacyZeroTimestamps(t *testing.T) {
	spec, err := sweep.ParseSpec(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.Row, len(jobs))
	for i, j := range jobs {
		rows[i] = sweep.RowOf(j, sweep.Outcome{Result: fakeSim(j), Key: j.Key()})
	}
	submitted := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	finished := submitted.Add(time.Minute)
	// s000001 finished; s000002 was canceled after one row.
	var recs []srvRec
	for _, id := range []string{"s000001", "s000002"} {
		recs = append(recs, srvRec{Op: "submit", ID: id, Name: "smoke", Par: 1, Spec: testSpec,
			Submitted: &submitted})
	}
	for i := range rows {
		recs = append(recs, srvRec{Op: "row", ID: "s000001", Index: i, Row: &rows[i]})
	}
	recs = append(recs,
		srvRec{Op: "end", ID: "s000001", State: string(stateDone), Finished: &finished},
		srvRec{Op: "row", ID: "s000002", Index: 3, Row: &rows[3]},
		srvRec{Op: "cancel", ID: "s000002"},
		srvRec{Op: "end", ID: "s000002", State: string(stateCanceled), Finished: &finished})

	var current, legacy [][]byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		current = append(current, b)
		b, err = json.Marshal(legacyRec{Op: r.Op, ID: r.ID, Name: r.Name, Tenant: r.Tenant,
			Pri: r.Pri, Par: r.Par, Spec: r.Spec, Submitted: timeOf(r.Submitted), Index: r.Index,
			Row: r.Row, State: r.State, Finished: timeOf(r.Finished), Recovered: r.Recovered})
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, b)
	}
	const zero = `"0001-01-01T00:00:00Z"`
	if n := bytes.Count(bytes.Join(legacy, nil), []byte(zero)); n != 2*len(recs)-4 {
		t.Fatalf("legacy journal holds %d zero timestamps, want %d", n, 2*len(recs)-4)
	}
	if bytes.Contains(bytes.Join(current, nil), []byte(zero)) {
		t.Fatal("the current record shape still journals zero timestamps")
	}

	// view is the replayed part of a sweepRun.
	type view struct {
		id, name, tenant, spec string
		priority, parallelism  int
		rows                   []sweep.Row
		completed, cached      int
		state                  sweepState
		submitted, finished    time.Time
		recovered, canceling   bool
	}
	table := func(payloads [][]byte) []view {
		dir := t.TempDir()
		walWith(t, dir, nil, payloads...)
		j, err := wal.Open(dir, wal.Options{SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		srv := New(Config{Simulate: fakeSim, Journal: j})
		defer srv.Shutdown(context.Background())
		var out []view
		for _, run := range srv.runs() {
			run.mu.Lock()
			out = append(out, view{id: run.id, name: run.name, tenant: run.tenant,
				priority: run.priority, parallelism: run.parallelism, spec: run.spec,
				rows: run.rows, completed: run.completed, cached: run.cached, state: run.state,
				submitted: run.submitted, finished: run.finished, recovered: run.recovered,
				canceling: run.canceling})
			run.mu.Unlock()
		}
		return out
	}
	want, got := table(current), table(legacy)
	if len(want) != 2 || want[0].state != stateDone || want[0].completed != len(rows) ||
		want[1].state != stateCanceled || want[1].completed != 1 || !want[0].submitted.Equal(submitted) {
		t.Fatalf("current-shape journal replayed to an unexpected table: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("legacy journal replayed to\n%+v\nwant\n%+v", got, want)
	}
}
