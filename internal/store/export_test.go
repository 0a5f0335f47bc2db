package store

import (
	"time"

	"repro/internal/sweep"
)

// SetRenameHook replaces the rename step that commits a temp file into
// place, letting crash-consistency tests simulate a writer killed
// mid-commit. Tests only.
func (s *Store) SetRenameHook(f func(oldpath, newpath string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rename = f
}

// SetReadHook installs a callback that runs during Get's disk read,
// after the membership check releases s.mu and before revalidation
// reacquires it. The lock-contention regression test uses it as a
// rendezvous point to prove two Gets can be inside the read at once.
// Must be set before the store is shared between goroutines. Tests only.
func (s *Store) SetReadHook(f func(k sweep.Key)) {
	s.readHook = f
}

// SetHedgeAfter overrides how long a primary fetch may stay silent
// before the next backend is fired too (hedgeDelay in production).
// Must be set before the first Get. Tests only.
func (t *Tiers) SetHedgeAfter(d time.Duration) {
	t.hedgeAfter = d
}

// LRUKeys lists the resident keys, most recently used first. Tests only.
func (s *Store) LRUKeys() []sweep.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []sweep.Key
	for el := s.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}
