package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// key synthesizes a distinct valid store key (64 lowercase hex digits).
func key(i int) sweep.Key {
	return sweep.Key(fmt.Sprintf("%064x", i+1))
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entrySize measures the on-disk size of one entry with the given result.
func entrySize(t *testing.T, res sim.Result) int64 {
	t.Helper()
	s := mustOpen(t, t.TempDir(), Options{})
	s.Put(key(0), res)
	return s.SizeBytes()
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	var hist stats.Histogram
	hist.Add(3)
	hist.AddN(7, 2)
	want := sim.Result{
		Instructions: 120000, Cycles: 60000, IPC: 2,
		Branches: 1000, Mispredicts: 77,
		ICacheMissRate: 0.015625, DCacheMissRate: 0.03125,
		ValueHist: hist,
	}

	s := mustOpen(t, dir, Options{})
	s.Put(key(0), want)
	if got, ok := s.Get(key(0)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("same-process get = %+v, %v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process sees the entry, bit-for-bit.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got, ok := s2.Get(key(0))
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reopened entry differs:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := s2.Get(key(1)); ok {
		t.Error("get of an absent key hit")
	}
	st := s2.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestEvictionOrder(t *testing.T) {
	res := sim.Result{Cycles: 1}
	size := entrySize(t, res)
	dir := t.TempDir()
	// Room for exactly three entries.
	s := mustOpen(t, dir, Options{MaxBytes: 3*size + size/2})
	a, b, c, d := key(0), key(1), key(2), key(3)
	s.Put(a, res)
	s.Put(b, res)
	s.Put(c, res)
	if s.Len() != 3 {
		t.Fatalf("len = %d before eviction, want 3", s.Len())
	}
	// Touch a so b becomes the least recently used …
	if _, ok := s.Get(a); !ok {
		t.Fatal("warm get missed")
	}
	// … then overflow: b, and only b, must go.
	s.Put(d, res)
	if s.Len() != 3 {
		t.Fatalf("len = %d after eviction, want 3", s.Len())
	}
	if _, ok := s.Get(b); ok {
		t.Error("least-recently-used entry b survived eviction")
	}
	for _, k := range []sweep.Key{a, c, d} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("entry %s... evicted out of LRU order", k[:8])
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if _, err := os.Stat(s.path(b)); !os.IsNotExist(err) {
		t.Error("evicted entry file still on disk")
	}

	// LRU order survives a reopen: touch c, reopen, overflow → a goes
	// (c and d are more recent).
	s.Get(c)
	s.Close()
	s2 := mustOpen(t, dir, Options{MaxBytes: 3*size + size/2})
	defer s2.Close()
	s2.Put(key(4), res)
	if _, ok := s2.Get(a); ok {
		t.Error("reopen forgot the LRU order: a outlived c and d")
	}
	for _, k := range []sweep.Key{c, d, key(4)} {
		if _, ok := s2.Get(k); !ok {
			t.Errorf("entry %s... wrongly evicted after reopen", k[:8])
		}
	}
}

func TestOversizedEntryRetained(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 1})
	s.Put(key(0), sim.Result{Cycles: 1})
	if s.Len() != 1 {
		t.Fatal("sole oversized entry was evicted at Put")
	}
	// The next Put displaces it.
	s.Put(key(1), sim.Result{Cycles: 2})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Error("newest entry evicted instead of the oversized one")
	}
}

// TestReopenRanksByMtime pins that an entry file's mtime is its
// recency: Open ranks entries newest mtime first, and a hit stamps the
// entry so the next Open ranks it first. Presence is checked on disk,
// since a Get would itself stamp the entry.
func TestReopenRanksByMtime(t *testing.T) {
	res := sim.Result{Cycles: 1}
	size := entrySize(t, res)
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		s.Put(key(i), res)
	}
	s.Close()
	// Newest first: 2, 0, 3, 4, 1 — neither the Put order nor key order.
	base := time.Now().Add(-time.Hour)
	for age, i := range []int{2, 0, 3, 4, 1} {
		mt := base.Add(-time.Duration(age) * time.Minute)
		if err := os.Chtimes(s.path(key(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	onDisk := func(i int) bool {
		_, err := os.Stat(s.path(key(i)))
		return err == nil
	}
	requireEvicted := func(step string, gone int, kept ...int) {
		t.Helper()
		if onDisk(gone) {
			t.Fatalf("%s: entry %d survived, want it evicted as least recent", step, gone)
		}
		for _, i := range kept {
			if !onDisk(i) {
				t.Fatalf("%s: entry %d evicted out of mtime order", step, i)
			}
		}
	}

	// Room for four entries: Open evicts the oldest mtime.
	opts := Options{MaxBytes: 4*size + size/2}
	s2 := mustOpen(t, dir, opts)
	requireEvicted("open", 1, 0, 2, 3, 4)
	// A hit on 3 makes it the newest across a reopen.
	if _, ok := s2.Get(key(3)); !ok {
		t.Fatal("resident entry 3 missed")
	}
	s2.Close()

	s3 := mustOpen(t, dir, opts)
	defer s3.Close()
	s3.Put(key(5), res)
	requireEvicted("first put after reopen", 4, 0, 2, 3, 5)
	s3.Put(key(6), res)
	requireEvicted("second put after reopen", 0, 2, 3, 5, 6)
}

// TestTruncatedEntrySkipped simulates a crash that corrupts an entry
// file: loading must succeed, Open must not decode the entry, and the
// entry must be counted and deleted at its first Get.
func TestTruncatedEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put(key(0), sim.Result{Cycles: 1})
	s.Put(key(1), sim.Result{Cycles: 2})
	s.Close()

	// Truncate entry 0 mid-JSON.
	p0 := filepath.Join(dir, "objects", string(key(0))+".json")
	data, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p0, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Corrupt != 0 || s2.Len() != 2 {
		t.Errorf("Open decoded entries: corrupt = %d, len = %d, want 0 and 2", st.Corrupt, s2.Len())
	}
	if _, err := os.Stat(p0); err != nil {
		t.Errorf("Open touched the truncated entry before any Get: %v", err)
	}
	if _, ok := s2.Get(key(0)); ok {
		t.Error("truncated entry served a result")
	}
	if got, ok := s2.Get(key(1)); !ok || got.Cycles != 2 {
		t.Error("intact entry lost alongside the corrupt one")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count after first Get = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(p0); !os.IsNotExist(err) {
		t.Error("corrupt entry file not removed")
	}
	// Once deleted, the entry is an ordinary miss.
	if _, ok := s2.Get(key(0)); ok {
		t.Error("deleted entry served a result")
	}
	if st := s2.Stats(); st.Corrupt != 1 || s2.Len() != 1 {
		t.Errorf("after the second Get: corrupt = %d, len = %d, want 1 and 1", st.Corrupt, s2.Len())
	}
}

// TestCorruptIndexRebuilt pins that an index.json left by an older
// release is ignored, whatever it holds: every object still serves.
func TestCorruptIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put(key(0), sim.Result{Cycles: 9})
	s.Put(key(1), sim.Result{Cycles: 10})
	s.Close()
	for _, index := range []string{
		``,
		`{"schema":`,
		`{"schema":1,"entries":[]}`,
		fmt.Sprintf(`{"schema":1,"entries":[{"key":%q,"size":1}]}`, key(2)),
	} {
		if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(index), 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir, Options{})
		if s2.Len() != 2 {
			t.Errorf("index %q: len = %d, want 2", index, s2.Len())
		}
		for i, want := range []uint64{9, 10} {
			if got, ok := s2.Get(key(i)); !ok || got.Cycles != want {
				t.Errorf("index %q: entry %d lost", index, i)
			}
		}
		s2.Close()
	}
}

func TestTmpFilesSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{}).Close()
	stray := filepath.Join(dir, "objects", "tmp-123456")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{}).Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray tmp file not removed at open")
	}
}

func TestForeignAndInvalidNamesIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put("../../etc/passwd", sim.Result{})
	s.Put("short", sim.Result{})
	s.Put(sweep.Key("ZZ"+string(key(0))[2:]), sim.Result{})
	if s.Len() != 0 {
		t.Fatalf("invalid keys stored: len = %d", s.Len())
	}
	s.Close()
	for _, name := range []string{"README.txt", "deadbeef.json"} {
		if err := os.WriteFile(filepath.Join(dir, "objects", name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Len() != 0 {
		t.Errorf("foreign object files adopted: len = %d", s2.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	size := entrySize(t, sim.Result{Cycles: 1})
	// A cap small enough to force constant eviction under load.
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 8 * size})
	defer s.Close()
	const (
		workers = 8
		span    = 32
		rounds  = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := key((w*7 + i) % span)
				if res, ok := s.Get(k); ok {
					if res.Cycles != uint64((w*7+i)%span)+1 {
						t.Errorf("key %s returned wrong payload", k[:8])
					}
					continue
				}
				s.Put(k, sim.Result{Cycles: uint64((w*7+i)%span) + 1})
			}
		}(w)
	}
	wg.Wait()
	if s.SizeBytes() > 8*size {
		t.Errorf("store over cap after concurrent load: %d > %d", s.SizeBytes(), 8*size)
	}
}

// TestRunnerResumesFromStore is the --store contract: a second process
// (fresh Runner, fresh Store over the same directory) performs zero
// simulations.
func TestRunnerResumesFromStore(t *testing.T) {
	dir := t.TempDir()
	jobs := make([]sweep.Job, 6)
	for i := range jobs {
		jobs[i] = sweep.Job{Seed: uint64(i + 1)}
	}
	var sims atomic.Int64
	run := func() []sweep.Outcome {
		st := mustOpen(t, dir, Options{})
		defer st.Close()
		r := sweep.NewRunner(sweep.RunnerConfig{
			Cache: NewTiers(TierConfig{Local: st}),
			Simulate: func(j sweep.Job) sim.Result {
				sims.Add(1)
				return sim.Result{Cycles: j.Seed * 10}
			},
		})
		return r.RunOutcomes(jobs, 4)
	}
	first := run()
	if got := sims.Load(); got != int64(len(jobs)) {
		t.Fatalf("cold run simulated %d of %d jobs", got, len(jobs))
	}
	second := run()
	if got := sims.Load(); got != int64(len(jobs)) {
		t.Errorf("warm run re-simulated: %d total", got)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("warm job %d not marked cached", i)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("warm job %d result differs from cold run", i)
		}
	}
}
