package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestGetReadsOutsideLock proves the warm-hit fast path does not hold
// s.mu across the disk read: two concurrent Gets must both be inside
// read() at the same instant. With the old lock-across-read behavior
// the second Get blocks on the mutex before its membership check, the
// rendezvous never completes, and the test fails on the timeout arm.
func TestGetReadsOutsideLock(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k := key(0)
	s.Put(k, sim.Result{Cycles: 7})

	var inRead atomic.Int32
	release := make(chan struct{})
	var timedOut atomic.Bool
	s.SetReadHook(func(sweep.Key) {
		if inRead.Add(1) == 2 {
			close(release)
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
	})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, ok := s.Get(k); !ok || res.Cycles != 7 {
				t.Errorf("concurrent get = %+v, %v", res, ok)
			}
		}()
	}
	wg.Wait()
	if timedOut.Load() {
		t.Fatal("second Get never entered the disk read: hits serialize on s.mu")
	}
	if st := s.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Errorf("stats = %+v, want exactly 2 hits", st)
	}
}

// TestConcurrentHitStatsExact is the -race torture test for the
// unlocked-read Get: heavy concurrent hits and misses must neither
// serialize (covered above) nor double-count stats — every Get
// increments exactly one of Hits/Misses.
func TestConcurrentHitStatsExact(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	const resident = 16
	for i := 0; i < resident; i++ {
		s.Put(key(i), sim.Result{Cycles: uint64(i) + 1})
	}
	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if i%4 == 3 {
					// A deliberate miss: keys >= resident never exist.
					if _, ok := s.Get(key(resident + (w*rounds+i)%7)); ok {
						t.Error("absent key hit")
					}
					continue
				}
				k := (w*13 + i) % resident
				res, ok := s.Get(key(k))
				if !ok || res.Cycles != uint64(k)+1 {
					t.Errorf("key %d = %+v, %v", k, res, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	wantHits := uint64(workers * rounds * 3 / 4)
	wantMisses := uint64(workers * rounds / 4)
	if st.Hits != wantHits || st.Misses != wantMisses {
		t.Errorf("stats = %d hits / %d misses, want %d / %d (double- or under-counted)",
			st.Hits, st.Misses, wantHits, wantMisses)
	}
}

// TestCorruptEntryConcurrentGets drops a corrupt entry exactly once even
// when many Gets race on it: the first revalidation deletes it and
// counts Corrupt, the rest see an ordinary miss.
func TestCorruptEntryConcurrentGets(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	k := key(0)
	s.Put(k, sim.Result{Cycles: 1})
	p := filepath.Join(dir, "objects", string(k)+".json")
	if err := os.WriteFile(p, []byte(`{"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}

	const gets = 8
	var wg sync.WaitGroup
	for i := 0; i < gets; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := s.Get(k); ok {
				t.Error("corrupt entry served a result")
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want exactly 1", st.Corrupt)
	}
	if st.Misses != gets {
		t.Errorf("misses = %d, want %d", st.Misses, gets)
	}
}

// TestCrashBetweenFlushesRecoversObjects pins that nothing but the
// entry files needs flushing: a process killed without Close still
// recovers every committed object, because each one is durable when Put
// returns and Open lists the objects directory.
func TestCrashBetweenFlushesRecoversObjects(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const puts = 20
	for i := 0; i < puts; i++ {
		s.Put(key(i), sim.Result{Cycles: uint64(i) + 1})
	}
	// Simulated crash: the store is abandoned without Close.

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Len() != puts {
		t.Fatalf("recovered %d of %d objects committed before the crash", s2.Len(), puts)
	}
	for i := 0; i < puts; i++ {
		res, ok := s2.Get(key(i))
		if !ok || res.Cycles != uint64(i)+1 {
			t.Errorf("object %d lost or wrong after crash recovery: %+v, %v", i, res, ok)
		}
	}
}

func TestShardOfStableAndBounded(t *testing.T) {
	const shards = 16
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		// Vary the leading 32 bits — that is the part ShardOf consumes.
		k := sweep.Key(fmt.Sprintf("%08x%056x", uint32(i)*2654435761, i))
		sh := ShardOf(k, shards)
		if sh != ShardOf(k, shards) {
			t.Fatalf("ShardOf not deterministic for %s", k[:8])
		}
		if sh < 0 || sh >= shards {
			t.Fatalf("shard %d out of range for %s", sh, k[:8])
		}
		seen[sh] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 keys landed in %d shard(s); shard function degenerate", len(seen))
	}
	if ShardOf(key(0), 0) != 0 {
		t.Error("ShardOf with n<=0 must return 0")
	}
}

func TestShardInventory(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	const shards = 8
	want := make(map[int]bool)
	for i := 0; i < 12; i++ {
		k := sweep.Key(fmt.Sprintf("%08x%056x", uint32(i)*0x20000000, i))
		if !validKey(k) {
			t.Fatalf("synthesized key invalid: %s", k)
		}
		s.Put(k, sim.Result{Cycles: 1})
		want[ShardOf(k, shards)] = true
	}
	inv := s.ShardInventory(shards)
	if len(inv) != len(want) {
		t.Fatalf("inventory %v, want %d distinct shards", inv, len(want))
	}
	for i, sh := range inv {
		if !want[sh] {
			t.Errorf("inventory lists unheld shard %d", sh)
		}
		if i > 0 && inv[i-1] >= sh {
			t.Errorf("inventory not sorted: %v", inv)
		}
	}
	if s.ShardInventory(0) != nil {
		t.Error("inventory with n<=0 must be nil")
	}
}

// BenchmarkStoreGetParallel measures the warm-hit fast path under
// parallel load — the path the unlocked read exists for.
func BenchmarkStoreGetParallel(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const resident = 64
	for i := 0; i < resident; i++ {
		s.Put(key(i), sim.Result{Cycles: uint64(i) + 1})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := s.Get(key(i % resident)); !ok {
				b.Error("resident key missed")
			}
			i++
		}
	})
}

// BenchmarkStoreOpen measures a reopen of a 500-object store: the
// directory listing and LRU rebuild every server start pays.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const objects = 500
	for i := 0; i < objects; i++ {
		s.Put(key(i), sim.Result{Cycles: uint64(i) + 1})
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != objects {
			b.Fatalf("reopened %d of %d objects", s.Len(), objects)
		}
		s.Close()
	}
}
