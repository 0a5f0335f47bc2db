package core

import (
	"strings"
	"testing"
)

// These tests cover the less-traveled paths: a one-level file with many
// banks, the generic File-interface fallbacks of the
// cluster-aware organizations, and the diagnostic helpers.

func TestOneLevelManyBanksSlowPath(t *testing.T) {
	f := NewOneLevel(OneLevelConfig{
		NumPhys: 64, Banks: 16, ReadPortsPerBank: 1, WritePortsPerBank: 1,
	})
	f.BeginCycle(10)
	// Registers 0 and 16 share bank 0 under the round-robin initial
	// spread; the per-bank port limit must hold with 16 banks too.
	if !f.TryRead(10, ops([2]uint64{0, 0}), false) {
		t.Fatal("first bank-0 read should succeed")
	}
	if f.TryRead(10, ops([2]uint64{16, 0}), false) {
		t.Fatal("second bank-0 read should be port-limited")
	}
	if !f.TryRead(10, ops([2]uint64{1, 0}), false) {
		t.Fatal("bank-1 read should succeed")
	}
	// Bypass and not-ready classifications with 16 banks.
	f.BeginCycle(8)
	o := ops([2]uint64{2, 10})
	if !f.TryRead(8, o, false) || !o[0].ViaBypass {
		t.Fatal("16-bank file should bypass at w-2")
	}
	f.BeginCycle(5)
	if f.TryRead(5, ops([2]uint64{2, 10}), false) {
		t.Fatal("16-bank file should reject unproduced operands")
	}
}

func TestOneLevelGenericWriteback(t *testing.T) {
	f := NewOneLevel(OneLevelConfig{
		NumPhys: 8, Banks: 2, ReadPortsPerBank: 1, WritePortsPerBank: 1,
	})
	f.BeginCycle(0)
	// The generic File method reserves in bank 0.
	if w := f.ReserveWriteback(3); w != 3 {
		t.Errorf("generic ReserveWriteback = %d", w)
	}
	if w := f.ReserveWriteback(3); w != 4 {
		t.Errorf("contended generic ReserveWriteback = %d, want 4", w)
	}
	// The no-op File methods must be callable.
	f.Writeback(3, 0, WBHints{})
	f.NotePrefetch(3, 0, 0)
}

func TestOneLevelUnknownAssignmentPanics(t *testing.T) {
	f := NewOneLevel(OneLevelConfig{
		NumPhys: 8, Banks: 2, ReadPortsPerBank: 1, WritePortsPerBank: 1,
		Assignment: BankAssignment(9),
	})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown assignment policy did not panic")
		}
	}()
	f.AssignBank(0)
}

func TestReplicatedGenericFileInterface(t *testing.T) {
	f := repl2()
	f.BeginCycle(20)
	// TryRead without a cluster hint reads from cluster 0.
	if !f.TryRead(20, ops([2]uint64{1, 0}), false) {
		t.Fatal("generic TryRead failed")
	}
	if w := f.ReserveWriteback(25); w != 25 {
		t.Errorf("generic ReserveWriteback = %d", w)
	}
	// No-op methods must be callable through the interface.
	var file File = f
	file.Writeback(25, 1, WBHints{})
	file.NotePrefetch(25, 1, 0)
	file.Release(1)
	if file.ReadLatency() != 1 {
		t.Error("replicated banks are single-cycle")
	}
}

func TestReplicatedRemoteDelayDefault(t *testing.T) {
	f := NewReplicated(ReplicatedConfig{
		NumPhys: 8, Clusters: 2, ReadPortsPerBank: 1, WritePortsPerBank: 1,
		// RemoteDelay 0 defaults to 1, like the 21264.
	})
	f.SetHome(3, 0)
	f.BeginCycle(9)
	o := ops([2]uint64{3, 10})
	if !f.TryReadCluster(9, o, 1) || !o[0].ViaBypass {
		t.Fatal("remote consumer should see the bus at w+1 with the default delay")
	}
}

func TestCacheFileDescribe(t *testing.T) {
	f := NewCacheFile(PaperCacheConfig())
	f.BeginCycle(1)
	f.Writeback(1, 5, WBHints{})
	d := f.Describe(5)
	for _, want := range []string{"inUpper=true", "inflight=false", "queued=0"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe(5) = %q missing %q", d, want)
		}
	}
}

func TestCacheFileAllPinnedForcedEviction(t *testing.T) {
	// When every slot is pinned, inserts must still proceed (forced
	// eviction) so the file cannot deadlock.
	cfg := PaperCacheConfig()
	cfg.UpperSize = 2
	cfg.NumPhys = 16
	f := NewCacheFile(cfg)
	// Fill both slots with pinned demand fetches.
	f.BeginCycle(1)
	for _, r := range []PhysReg{1, 2} {
		f.Writeback(1, r, WBHints{BypassCaught: true}) // lower only
	}
	f.TryRead(1, ops([2]uint64{1, 1}), true)
	f.TryRead(1, ops([2]uint64{2, 1}), true)
	f.BeginCycle(2) // grants
	f.BeginCycle(3) // deliveries: both slots pinned
	if f.UpperResidents() != 2 {
		t.Fatalf("expected 2 pinned residents, have %d", f.UpperResidents())
	}
	// A caching write must still find a victim.
	f.Writeback(3, 9, WBHints{})
	if !f.InUpper(9) {
		t.Fatal("insert with all slots pinned did not proceed")
	}
	if f.UpperResidents() != 2 {
		t.Errorf("residents = %d after forced eviction", f.UpperResidents())
	}
}

func TestCacheFileStaleQueueEntriesDropped(t *testing.T) {
	// A prefetch promoted to a demand fetch leaves a dead prefetch-queue
	// entry; popping it must not grant a second transfer.
	cfg := PaperCacheConfig()
	cfg.Buses = 1
	f := NewCacheFile(cfg)
	f.BeginCycle(1)
	f.Writeback(1, 7, WBHints{BypassCaught: true}) // lower only
	f.NotePrefetch(1, 7, 1)                        // prefetch-queued
	f.TryRead(1, ops([2]uint64{7, 1}), true)       // promoted to demand
	f.BeginCycle(2)                                // grant (demand)
	f.BeginCycle(3)                                // delivery
	if got := f.Stats().DemandFetches; got != 1 {
		t.Errorf("demand fetches = %d, want 1", got)
	}
	if got := f.Stats().Prefetches; got != 0 {
		t.Errorf("stale prefetch entry was granted: %d", got)
	}
	if !f.InUpper(7) {
		t.Error("promoted fetch did not deliver")
	}
}

func TestMonolithicInterfaceNoops(t *testing.T) {
	var f File = NewMonolithic(MonolithicConfig{
		NumPhys: 8, Latency: 1, FullBypass: true, ReadPorts: 1, WritePorts: 1,
	})
	f.BeginCycle(0)
	f.Writeback(0, 1, WBHints{})
	f.NotePrefetch(0, 1, 0)
	f.Release(1)
	if f.ReadLatency() != 1 {
		t.Error("latency mismatch through the interface")
	}
}

func TestFileStatsSub(t *testing.T) {
	a := FileStats{Reads: 10, BypassReads: 8, ReadPortConflicts: 6, UpperHits: 5,
		DemandFetches: 4, Prefetches: 3, CachingWrites: 2, CachingSkipped: 1, Evictions: 9}
	b := FileStats{Reads: 1, BypassReads: 1, ReadPortConflicts: 1, UpperHits: 1,
		DemandFetches: 1, Prefetches: 1, CachingWrites: 1, CachingSkipped: 1, Evictions: 1}
	d := a.Sub(b)
	if d.Reads != 9 || d.BypassReads != 7 || d.ReadPortConflicts != 5 || d.UpperHits != 4 ||
		d.DemandFetches != 3 || d.Prefetches != 2 || d.CachingWrites != 1 ||
		d.CachingSkipped != 0 || d.Evictions != 8 {
		t.Errorf("Sub = %+v", d)
	}
}
