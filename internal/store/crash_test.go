package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// These tests simulate a writer killed at precise points inside the
// tmp+rename commit protocol, via the injected rename hook, and assert
// the invariant the store documents: committed entries are never lost,
// uncommitted or torn entries are skipped or repaired, and no debris
// survives a reopen. The dying store is deliberately never Closed — a
// crash doesn't flush anything.

// crashingRename returns a rename hook that commits normally until an
// object write matches victim; that rename is skipped (the classic
// kill -9 between write and rename), leaving the temp file behind.
func crashingRename(victim string) func(string, string) error {
	return func(oldpath, newpath string) error {
		if strings.Contains(newpath, victim) {
			return nil // "crashed": tmp stays, target never appears
		}
		return os.Rename(oldpath, newpath)
	}
}

func countTmpFiles(t *testing.T, dir string) int {
	t.Helper()
	names, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range names {
		if strings.HasPrefix(de.Name(), "tmp-") {
			n++
		}
	}
	return n
}

// TestCrashBeforeObjectRename kills the writer after the temp file is
// written but before it is renamed into place. The entry must be gone
// after reopen (it was never committed), every earlier entry must
// survive, and the stray temp file must be swept.
func TestCrashBeforeObjectRename(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put(key(0), sim.Result{Cycles: 10})
	s.Put(key(1), sim.Result{Cycles: 11})

	s.SetRenameHook(crashingRename(string(key(2))))
	s.Put(key(2), sim.Result{Cycles: 12})
	// The dying process believed the Put succeeded; both views are
	// acceptable pre-crash. What matters is the state after reopen.
	if countTmpFiles(t, dir) == 0 {
		t.Fatal("crash simulation left no temp debris; the hook did not fire")
	}

	re := mustOpen(t, dir, Options{})
	for i, want := range []uint64{10, 11} {
		res, ok := re.Get(key(i))
		if !ok || res.Cycles != want {
			t.Errorf("committed entry %d lost after crash: ok=%v res=%+v", i, ok, res)
		}
	}
	if _, ok := re.Get(key(2)); ok {
		t.Error("uncommitted entry served after crash")
	}
	if n := countTmpFiles(t, dir); n != 0 {
		t.Errorf("%d temp files survived reopen, want 0", n)
	}
	// The reopened store must accept the key again.
	re.Put(key(2), sim.Result{Cycles: 12})
	if res, ok := re.Get(key(2)); !ok || res.Cycles != 12 {
		t.Errorf("re-put after crash not served: ok=%v res=%+v", ok, res)
	}
}

// TestCrashTearsObjectFile simulates a torn write surviving the rename
// (a non-atomic filesystem flushing half a page): the committed file is
// truncated mid-JSON. The reopened store must treat it as a miss, repair
// by deletion, and keep serving every intact entry.
func TestCrashTearsObjectFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put(key(0), sim.Result{Cycles: 10})

	s.SetRenameHook(func(oldpath, newpath string) error {
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		if strings.Contains(newpath, string(key(1))) {
			info, err := os.Stat(newpath)
			if err != nil {
				return err
			}
			return os.Truncate(newpath, info.Size()/2)
		}
		return nil
	})
	s.Put(key(1), sim.Result{Cycles: 11})

	re := mustOpen(t, dir, Options{})
	if res, ok := re.Get(key(0)); !ok || res.Cycles != 10 {
		t.Errorf("intact entry lost next to a torn one: ok=%v res=%+v", ok, res)
	}
	if _, ok := re.Get(key(1)); ok {
		t.Error("torn entry served after reopen")
	}
	if re.Stats().Corrupt == 0 {
		t.Error("torn entry left no corruption trace in stats")
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", string(key(1))+".json")); !os.IsNotExist(err) {
		t.Errorf("torn entry file not repaired by deletion: %v", err)
	}
}

// TestCrashStormLosesNothingCommitted interleaves successful and killed
// writers: every Put whose commit completed must survive, every killed
// one must vanish cleanly, across two consecutive crashes and reopens.
func TestCrashStormLosesNothingCommitted(t *testing.T) {
	dir := t.TempDir()
	committed := map[int]uint64{}

	s := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		s.Put(key(i), sim.Result{Cycles: uint64(100 + i)})
		committed[i] = uint64(100 + i)
	}
	s.SetRenameHook(crashingRename(string(key(4))))
	s.Put(key(4), sim.Result{Cycles: 104}) // dies mid-commit

	s = mustOpen(t, dir, Options{})
	s.Put(key(5), sim.Result{Cycles: 105})
	committed[5] = 105
	s.SetRenameHook(crashingRename(string(key(6))))
	s.Put(key(6), sim.Result{Cycles: 106}) // dies mid-commit

	re := mustOpen(t, dir, Options{})
	for i, want := range committed {
		res, ok := re.Get(key(i))
		if !ok || res.Cycles != want {
			t.Errorf("committed entry %d lost in the storm: ok=%v res=%+v", i, ok, res)
		}
	}
	for _, i := range []int{4, 6} {
		if _, ok := re.Get(key(i)); ok {
			t.Errorf("killed writer's entry %d resurrected", i)
		}
	}
	if got, want := re.Len(), len(committed); got != want {
		t.Errorf("reopened store has %d entries, want %d", got, want)
	}
	if n := countTmpFiles(t, dir); n != 0 {
		t.Errorf("%d temp files survived the storm, want 0", n)
	}
}
