package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/wal"
)

// writtenRecords returns one record of every kind the server journals.
func writtenRecords() []srvRec {
	submitted := time.Date(2024, 5, 1, 12, 30, 0, 123456789, time.FixedZone("", 2*3600))
	finished := time.Date(2024, 5, 1, 12, 31, 7, 0, time.UTC)
	row := sweep.Row{Benchmark: "compress", Arch: "1-cycle R∞W∞", Seed: 7, Instructions: 120000,
		Cycles: 98765, IPC: 1.2150306283602502, MispredRate: 0.0731, ICacheMiss: 0.0012345,
		DCacheMiss: 4.5e-7, Key: "ddc1aea79425326c459363433683132193b2b03cf499bfd0ae0ee734ea1c8cfb", Cached: true}
	return []srvRec{
		{Op: "submit", ID: "s000001", Name: "grid", Tenant: "team-a", Pri: 2, Par: 4,
			Spec: gridSpec, Submitted: &submitted},
		{Op: "row", ID: "s000001", Index: 107, Row: &row},
		{Op: "row", ID: "s000001", Row: &sweep.Row{Benchmark: "swim", Arch: "2-cycle", Key: "k"}},
		{Op: "cancel", ID: "s000001"},
		{Op: "end", ID: "s000001", State: string(stateCanceled), Finished: &finished, Recovered: true},
	}
}

// mustEncode is encodeRecord for records that must encode.
func mustEncode(t testing.TB, r srvRec) []byte {
	t.Helper()
	b, err := encodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameRecord reports whether got holds want's fields, comparing floats
// by their bits and timestamps by instant and zone offset.
func sameRecord(got, want srvRec) bool {
	for _, p := range [][2]*time.Time{{got.Submitted, want.Submitted}, {got.Finished, want.Finished}} {
		if (p[0] == nil) != (p[1] == nil) {
			return false
		}
		if p[0] != nil {
			_, g := p[0].Zone()
			_, w := p[1].Zone()
			if !p[0].Equal(*p[1]) || g != w {
				return false
			}
		}
	}
	if (got.Row == nil) != (want.Row == nil) {
		return false
	}
	if got.Row != nil {
		g, w := *got.Row, *want.Row
		for _, f := range [][2]*float64{{&g.IPC, &w.IPC}, {&g.MispredRate, &w.MispredRate},
			{&g.ICacheMiss, &w.ICacheMiss}, {&g.DCacheMiss, &w.DCacheMiss}} {
			if math.Float64bits(*f[0]) != math.Float64bits(*f[1]) {
				return false
			}
			*f[0], *f[1] = 0, 0
		}
		if g != w {
			return false
		}
	}
	got.Submitted, got.Finished, got.Row = nil, nil, nil
	want.Submitted, want.Finished, want.Row = nil, nil, nil
	return got == want
}

// FuzzRecordRoundTrip builds a record of each op from the fuzzer's
// values, carrying only the fields that op carries, and wants
// encodeRecord → decodeRecord to return it unchanged. Every proper
// prefix of the encoding, and the encoding with a byte appended, must
// be rejected. The seeds are the records the server writes.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, r := range writtenRecords() {
		var row sweep.Row
		if r.Row != nil {
			row = *r.Row
		}
		at := r.Submitted
		if at == nil {
			at = r.Finished
		}
		var sec int64
		var nsec, zone int32
		if at != nil {
			_, off := at.Zone()
			sec, nsec, zone = at.Unix(), int32(at.Nanosecond()), int32(off/60)
		}
		f.Add(byte(slices.Index(tagOps[:], r.Op)-1), r.ID, r.Name, r.Tenant, r.Pri, r.Par, r.Spec, r.Index,
			row.Benchmark, row.Arch, row.Seed, row.Instructions, row.Cycles,
			row.IPC, row.MispredRate, row.ICacheMiss, row.DCacheMiss, row.Key, row.Cached,
			r.State, at != nil, sec, nsec, zone, r.Recovered)
	}
	f.Fuzz(func(t *testing.T, tag byte, id, name, tenant string, pri, par int, spec string, index int,
		bench, arch string, seed, instrs, cycles uint64, ipc, mispred, icache, dcache float64,
		key string, cached bool, state string, stamped bool, sec int64, nsec, zone int32, recovered bool) {
		var at *time.Time
		if stamped {
			ts := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(zone%(24*60))*60))
			if _, err := ts.MarshalBinary(); err != nil {
				return // a zone offset time.Time cannot encode
			}
			at = &ts
		}
		r := srvRec{Op: tagOps[1+tag%4], ID: id}
		switch r.Op {
		case "submit":
			r.Name, r.Tenant, r.Pri, r.Par, r.Spec, r.Submitted = name, tenant, pri, par, spec, at
		case "row":
			r.Index, r.Row = index, &sweep.Row{Benchmark: bench, Arch: arch, Seed: seed,
				Instructions: instrs, Cycles: cycles, IPC: ipc, MispredRate: mispred,
				ICacheMiss: icache, DCacheMiss: dcache, Key: key, Cached: cached}
		case "end":
			r.State, r.Finished, r.Recovered = state, at, recovered
		}
		enc := mustEncode(t, r)
		var got srvRec
		if !decodeRecord(enc, &got) || !sameRecord(got, r) {
			t.Fatalf("%+v encodes to %x, which decodes to %+v", r, enc, got)
		}
		for n := range enc {
			if decodeRecord(enc[:n], new(srvRec)) {
				t.Fatalf("the %d-byte prefix of %x decodes", n, enc)
			}
		}
		if decodeRecord(append(enc, 0), new(srvRec)) {
			t.Fatalf("%x with a trailing byte decodes", enc)
		}
	})
}

// FuzzDecodeRecord feeds decodeRecord arbitrary payloads. A payload led
// by a tag byte must be rejected or decode to a record that encodes to
// the same bytes, so no two payloads replay as one record; any other
// payload must decode exactly as json.Unmarshal into a srvRec does, as
// the records of older servers did. The seeds are the records the
// server writes, in both encodings; the committed corpus holds JSON
// that no server writes: unknown, case-variant and duplicate keys,
// nulls, type mismatches, bad numbers, escapes, invalid UTF-8 and deep
// nesting.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range writtenRecords() {
		legacy, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mustEncode(f, r))
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got srvRec
		ok := decodeRecord(payload, &got)
		if len(payload) > 0 && int(payload[0]) < len(tagOps) && tagOps[payload[0]] != "" {
			if !ok {
				return
			}
			if enc, err := encodeRecord(got); err != nil || !bytes.Equal(enc, payload) {
				t.Fatalf("%x decodes to %+v, which encodes to %x (%v)", payload, got, enc, err)
			}
			return
		}
		var want srvRec
		if wantOK := json.Unmarshal(payload, &want) == nil; ok != wantOK || ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord(%q) = %t %+v; json.Unmarshal: %t %+v", payload, ok, got, wantOK, want)
		}
	})
}

// TestRecordEncodingPinned pins the bytes of one record of each op.
// Journals written by earlier builds hold records in this layout.
func TestRecordEncodingPinned(t *testing.T) {
	at := time.Date(2024, 5, 1, 12, 30, 0, 5, time.FixedZone("", 2*3600))
	row := sweep.Row{Benchmark: "gcc", Arch: "rfcache", Seed: 3, Instructions: 300, Cycles: 200,
		IPC: 1.5, MispredRate: 0.25, ICacheMiss: 0, DCacheMiss: -1, Key: "k", Cached: true}
	for _, c := range []struct {
		rec  srvRec
		want []string // the fields' hex, in order
	}{
		{srvRec{Op: "submit", ID: "s1", Name: "n", Tenant: "t", Pri: -1, Par: 2, Spec: "{}", Submitted: &at}, []string{
			"01", "027331", "016e", "0174", "01", "04", "027b7d",
			"0f" + "01" + "0000000eddc410a8" + "00000005" + "0078"}},
		{srvRec{Op: "row", ID: "s1", Index: 65, Row: &row}, []string{
			"02", "027331", "8201", "03676363", "0772666361636865", "03", "ac02", "c801",
			"000000000000f83f", "000000000000d03f", "0000000000000000", "000000000000f0bf", "016b", "01"}},
		{srvRec{Op: "cancel", ID: "s1"}, []string{"03", "027331"}},
		{srvRec{Op: "end", ID: "s1", State: "done", Recovered: true}, []string{
			"04", "027331", "04646f6e65", "00", "01"}},
	} {
		got := hex.EncodeToString(mustEncode(t, c.rec))
		if want := strings.Join(c.want, ""); got != want {
			t.Errorf("%s record encodes to\n%s, want\n%s", c.rec.Op, got, want)
		}
	}
}

// TestDecodeRecordEveryField sets every field of srvRec and sweep.Row,
// encodes the record under each op, and wants back exactly the fields
// that op carries, the rest zero. A field added to either struct fails
// it until an op carries it.
func TestDecodeRecordEveryField(t *testing.T) {
	at := time.Date(2024, 5, 1, 12, 30, 0, 7, time.FixedZone("", -5*3600))
	row := sweep.Row{Benchmark: "gcc", Arch: "rfcache", Seed: 1, Instructions: 2, Cycles: 3,
		IPC: 0.5, MispredRate: 0.25, ICacheMiss: 0.125, DCacheMiss: 0.0625, Key: "k", Cached: true}
	full := srvRec{Op: "end", ID: "s000001", Name: "n", Tenant: "t", Pri: 1, Par: 2, Spec: "{}",
		Submitted: &at, Index: 3, Row: &row, State: "done", Finished: &at, Recovered: true}
	for _, v := range []reflect.Value{reflect.ValueOf(full), reflect.ValueOf(row)} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s is zero here; set it", v.Type(), v.Type().Field(i).Name)
			}
		}
	}
	carried := map[string]bool{}
	for op, fields := range map[string][]string{
		"submit": {"Name", "Tenant", "Pri", "Par", "Spec", "Submitted"},
		"row":    {"Index", "Row"},
		"cancel": nil,
		"end":    {"State", "Finished", "Recovered"},
	} {
		rec := full
		rec.Op = op
		want := srvRec{Op: op, ID: rec.ID}
		for _, name := range append(fields, "Op", "ID") {
			reflect.ValueOf(&want).Elem().FieldByName(name).Set(reflect.ValueOf(rec).FieldByName(name))
			carried[name] = true
		}
		var got srvRec
		if !decodeRecord(mustEncode(t, rec), &got) || !sameRecord(got, want) {
			t.Errorf("%s record decodes to %+v, want %+v", op, got, want)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(full)) {
		if !carried[f.Name] {
			t.Errorf("no op carries srvRec.%s", f.Name)
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
// three ways: as binary records, as the JSON records older servers
// wrote, and as the still older JSON with zero timestamps in every
// record. It wants the same sweep table from all three.
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

	var binary, current, legacy [][]byte
	for _, r := range recs {
		binary = append(binary, mustEncode(t, r))
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
		t.Fatal("the JSON record shape journals zero timestamps")
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
	want := table(binary)
	if len(want) != 2 || want[0].state != stateDone || want[0].completed != len(rows) ||
		want[1].state != stateCanceled || want[1].completed != 1 || !want[0].submitted.Equal(submitted) {
		t.Fatalf("binary journal replayed to an unexpected table: %+v", want)
	}
	if got := table(current); !reflect.DeepEqual(got, want) {
		t.Errorf("JSON journal replayed to\n%+v\nwant\n%+v", got, want)
	}
	if got := table(legacy); !reflect.DeepEqual(got, want) {
		t.Errorf("zero-timestamp JSON journal replayed to\n%+v\nwant\n%+v", got, want)
	}
}
