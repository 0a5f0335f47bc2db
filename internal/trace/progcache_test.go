package trace

import (
	"sync"
	"testing"

	"repro/internal/isa"
)

func progCacheLen() int {
	progMu.Lock()
	defer progMu.Unlock()
	return len(progCache)
}

func progCached(p Profile) bool {
	progMu.Lock()
	defer progMu.Unlock()
	_, ok := progCache[p]
	return ok
}

// TestProgCacheBounded churns ten caps' worth of trace seeds through the
// program cache from several goroutines; it must never hold more than
// progCacheCap programs.
func TestProgCacheBounded(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := testProfile()
			for s := w; s < 10*progCacheCap; s += workers {
				p.Seed = uint64(1000 + s)
				New(p).Next()
				if n := progCacheLen(); n > progCacheCap {
					t.Errorf("program cache holds %d programs, cap %d", n, progCacheCap)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestProgCacheEvictsLeastRecentlyUsed fills the cache past its cap while
// one profile stays in use: that profile survives, the untouched one is
// evicted, and its rebuilt program yields the same stream.
func TestProgCacheEvictsLeastRecentlyUsed(t *testing.T) {
	hot, cold := testProfile(), testProfile()
	hot.Seed, cold.Seed = 1, 2
	want := make([]isa.Instr, 2000)
	g := New(cold)
	for i := range want {
		want[i] = *g.Next()
	}
	New(hot)
	p := testProfile()
	for s := 0; s < progCacheCap; s++ {
		p.Seed = uint64(5000 + s)
		New(p)
		New(hot)
	}
	if !progCached(hot) {
		t.Error("recently used program was evicted")
	}
	if progCached(cold) {
		t.Fatal("least recently used program was not evicted")
	}
	g = New(cold)
	for i := range want {
		if got := *g.Next(); got != want[i] {
			t.Fatalf("instruction %d after eviction: %v, want %v", i, got, want[i])
		}
	}
}
