package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/rf/api"
)

// fakeBackend scripts one Backend's behavior for hedge tests.
type fakeBackend struct {
	delay    time.Duration
	res      sim.Result
	ok       bool
	err      error
	gets     atomic.Int64
	canceled atomic.Int64 // Gets that observed ctx cancellation before answering
}

func (f *fakeBackend) Get(ctx context.Context, k sweep.Key) (sim.Result, bool, error) {
	f.gets.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			f.canceled.Add(1)
			return sim.Result{}, false, ctx.Err()
		}
	}
	return f.res, f.ok, f.err
}

func (f *fakeBackend) Put(context.Context, sweep.Key, sim.Result) error { return nil }

func (f *fakeBackend) Len() int         { return 0 }
func (f *fakeBackend) SizeBytes() int64 { return 0 }

// TestHedgeSecondaryWins: a slow primary forces a hedge; the fast
// secondary's result wins, and the loser is canceled rather than left
// running to the end of its delay.
func TestHedgeSecondaryWins(t *testing.T) {
	slow := &fakeBackend{delay: 30 * time.Second, res: sim.Result{Cycles: 1}, ok: true}
	fast := &fakeBackend{res: sim.Result{Cycles: 2}, ok: true}
	ti := NewTiers(TierConfig{
		Remotes: []Tier{
			{Name: "slow", Backend: slow},
			{Name: "fast", Backend: fast},
		},
	})
	ti.SetHedgeAfter(10 * time.Millisecond)
	defer ti.Close()

	res, ok := ti.Get(key(0))
	if !ok || res.Cycles != 2 {
		t.Fatalf("Get = (%+v, %v), want the fast secondary's result", res, ok)
	}
	st := ti.Stats()
	if st.HedgedFetches != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1", st.HedgedFetches, st.HedgeWins)
	}
	if st.Hits["fast"] != 1 {
		t.Fatalf("Hits = %v, want fast:1", st.Hits)
	}
	// The slow primary's goroutine must be canceled by the winner, not
	// left sleeping for its full 30s delay.
	deadline := time.Now().Add(5 * time.Second)
	for slow.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing fetch was never canceled (goroutine leak)")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHedgeAllFail: when every tier errors, the read degrades to a
// miss (so the caller simulates) rather than failing the sweep.
func TestHedgeAllFail(t *testing.T) {
	a := &fakeBackend{err: errors.New("down")}
	b := &fakeBackend{err: errors.New("also down")}
	ti := NewTiers(TierConfig{Remotes: []Tier{
		{Name: "a", Backend: a},
		{Name: "b", Backend: b},
	}})
	defer ti.Close()

	if _, ok := ti.Get(key(0)); ok {
		t.Fatal("Get reported a hit with every tier failing")
	}
	st := ti.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	if st.RemoteErrors != 2 {
		t.Fatalf("RemoteErrors = %d, want 2", st.RemoteErrors)
	}
	if st.HedgedFetches != 0 {
		t.Fatalf("HedgedFetches = %d, want 0 (immediate failover is not a hedge)", st.HedgedFetches)
	}
}

// TestRemoteMissFailsOverImmediately: a clean 404 from the primary
// fires the next tier at once, well before the hedge timer.
func TestRemoteMissFailsOverImmediately(t *testing.T) {
	empty := &fakeBackend{}
	holds := &fakeBackend{res: sim.Result{Cycles: 7}, ok: true}
	ti := NewTiers(TierConfig{
		Remotes: []Tier{
			{Name: "empty", Backend: empty},
			{Name: "holds", Backend: holds},
		},
	})
	ti.SetHedgeAfter(time.Hour) // immediate failover must not wait for this
	defer ti.Close()

	done := make(chan struct{})
	var res sim.Result
	var ok bool
	go func() { res, ok = ti.Get(key(0)); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("failover waited on the hedge timer")
	}
	if !ok || res.Cycles != 7 {
		t.Fatalf("Get = (%+v, %v), want the second tier's result", res, ok)
	}
	if st := ti.Stats(); st.HedgedFetches != 0 {
		t.Fatalf("HedgedFetches = %d, want 0", st.HedgedFetches)
	}
}

// TestRemoteHitPromotesToLocal: a remote hit lands in the memory tier
// and the local store, so the next read never leaves the node — not in
// this process (a memory hit), nor in a fresh stack over the same store
// (a local hit).
func TestRemoteHitPromotesToLocal(t *testing.T) {
	local := mustOpen(t, t.TempDir(), Options{})
	defer local.Close()
	back := &fakeBackend{res: sim.Result{Cycles: 42}, ok: true}
	remotes := []Tier{{Name: "remote", Backend: back}}
	ti := NewTiers(TierConfig{Local: local, Remotes: remotes})
	defer ti.Close()

	if res, ok := ti.Get(key(0)); !ok || res.Cycles != 42 {
		t.Fatalf("Get = (%+v, %v), want remote hit", res, ok)
	}
	if res, ok := ti.Get(key(0)); !ok || res.Cycles != 42 {
		t.Fatalf("second Get = (%+v, %v), want memory hit", res, ok)
	}
	st := ti.Stats()
	if st.Hits["remote"] != 1 || st.Hits["memory"] != 1 || st.Promotions != 1 {
		t.Fatalf("stats = %+v, want remote:1 memory:1 promotions:1", st)
	}

	fresh := NewTiers(TierConfig{Local: local, Remotes: remotes})
	defer fresh.Close()
	if res, ok := fresh.Get(key(0)); !ok || res.Cycles != 42 {
		t.Fatalf("fresh-stack Get = (%+v, %v), want local hit", res, ok)
	}
	if h := fresh.Stats().Hits; h["local"] != 1 || len(h) != 1 {
		t.Fatalf("fresh-stack hits = %v, want local:1", h)
	}
	if got := back.gets.Load(); got != 1 {
		t.Fatalf("backend saw %d Gets, want 1 (promotion must absorb the rest)", got)
	}
}

// TestLocalHitPromotesToMemory: a local-store hit is copied into the
// memory tier, so a repeat read costs no disk I/O; each lookup counts
// exactly one tier hit, and a miss everywhere counts one miss.
func TestLocalHitPromotesToMemory(t *testing.T) {
	local := mustOpen(t, t.TempDir(), Options{})
	defer local.Close()
	local.Put(key(0), sim.Result{Cycles: 8})
	ti := NewTiers(TierConfig{Local: local})
	defer ti.Close()

	for i := 0; i < 3; i++ {
		if res, ok := ti.Get(key(0)); !ok || res.Cycles != 8 {
			t.Fatalf("Get #%d = (%+v, %v), want hit", i, res, ok)
		}
	}
	if _, ok := ti.Get(key(1)); ok {
		t.Fatal("Get of an absent key hit")
	}
	st := ti.Stats()
	if st.Hits["local"] != 1 || st.Hits["memory"] != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want local:1 memory:2 misses:1", st)
	}
	if got := local.Stats().Hits; got != 1 {
		t.Fatalf("local store served %d reads, want 1", got)
	}
}

// TestTiersPutAfterClose: a Put that arrives after (or races with)
// Close — a fleet worker's job finishing during shutdown — must not
// panic on the closed write-behind queue. Memory and local still take
// the write; the replication is dropped and counted.
func TestTiersPutAfterClose(t *testing.T) {
	local := mustOpen(t, t.TempDir(), Options{})
	defer local.Close()
	ti := NewTiers(TierConfig{Local: local, Remotes: []Tier{{
		Name: "remote", Backend: &fakeBackend{}, WriteThrough: true,
	}}})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ti.Put(key(1+g*50+i), sim.Result{Cycles: 1})
			}
		}(g)
	}
	ti.Close()
	wg.Wait()
	drops := ti.Stats().WriteBehindDrops

	ti.Put(key(0), sim.Result{Cycles: 3})
	ti.Close() // idempotent
	if res, ok := ti.Get(key(0)); !ok || res.Cycles != 3 {
		t.Fatalf("Get after Close = (%+v, %v), want the memory copy", res, ok)
	}
	if _, ok := local.Get(key(0)); !ok {
		t.Fatal("Put after Close did not reach the local tier")
	}
	if got := ti.Stats().WriteBehindDrops; got != drops+1 {
		t.Fatalf("WriteBehindDrops = %d, want %d", got, drops+1)
	}
}

// TestRemoteCorruptObjectIsError: an object document whose embedded key
// does not match the requested key must surface as an error (counted,
// retried on other tiers), never as a wrong result.
func TestRemoteCorruptObjectIsError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Always answer with some other key's object.
		json.NewEncoder(w).Encode(api.Object{Key: string(key(99)), Result: sim.Result{Cycles: 13}})
	}))
	defer srv.Close()

	r := NewRemote(srv.URL, RemoteOptions{})
	if _, ok, err := r.Get(context.Background(), key(0)); ok || err == nil {
		t.Fatalf("Get on corrupt document = (ok=%v, err=%v), want (false, error)", ok, err)
	}

	ti := NewTiers(TierConfig{Remotes: []Tier{{Name: "remote", ID: srv.URL, Backend: r}}})
	defer ti.Close()
	if _, ok := ti.Get(key(0)); ok {
		t.Fatal("tiered Get returned a wrong-key object as a hit")
	}
	st := ti.Stats()
	if st.RemoteErrors != 1 || st.Misses != 1 {
		t.Fatalf("errors=%d misses=%d, want 1/1", st.RemoteErrors, st.Misses)
	}
}

// TestRemoteRoundTrip exercises Remote against a real object API shape:
// 404 is a clean miss, PUT then GET round-trips the result.
func TestRemoteRoundTrip(t *testing.T) {
	objects := map[string]sim.Result{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		k := r.PathValue("key")
		res, ok := objects[k]
		if !ok {
			http.Error(w, "no object", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(api.Object{Key: k, Result: res})
	})
	mux.HandleFunc("PUT /v1/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		var obj api.Object
		if err := json.NewDecoder(r.Body).Decode(&obj); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		objects[obj.Key] = obj.Result
		fmt.Fprint(w, `{"ok":true}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	r := NewRemote(srv.URL, RemoteOptions{})
	ctx := context.Background()
	if _, ok, err := r.Get(ctx, key(0)); ok || err != nil {
		t.Fatalf("Get on empty remote = (ok=%v, err=%v), want clean miss", ok, err)
	}
	if err := r.Put(ctx, key(0), sim.Result{Cycles: 5}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	res, ok, err := r.Get(ctx, key(0))
	if err != nil || !ok || res.Cycles != 5 {
		t.Fatalf("Get after Put = (%+v, %v, %v), want hit with Cycles=5", res, ok, err)
	}
}

// staticPeers is a PeerSource pinned to a fixed candidate list.
type staticPeers struct{ urls []string }

func (s staticPeers) Peers(sweep.Key) []string { return s.urls }

// TestPeerFailsOverAcrossCandidates: a dead first candidate must not
// end the read — the next advertiser serves it.
func TestPeerFailsOverAcrossCandidates(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Object{Key: string(key(0)), Result: sim.Result{Cycles: 9}})
	}))
	defer good.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // refused connections from here on

	p := NewPeer(staticPeers{urls: []string{dead.URL, good.URL}}, RemoteOptions{})
	res, ok, err := p.Get(context.Background(), key(0))
	if err != nil || !ok || res.Cycles != 9 {
		t.Fatalf("Get = (%+v, %v, %v), want the live peer's result", res, ok, err)
	}

	// No advertisers at all is a clean miss.
	none := NewPeer(staticPeers{}, RemoteOptions{})
	if _, ok, err := none.Get(context.Background(), key(0)); ok || err != nil {
		t.Fatalf("Get with no advertisers = (ok=%v, err=%v), want clean miss", ok, err)
	}
}

// TestWriteBehindReplicates: local Puts reach write-through remotes.
func TestWriteBehindReplicates(t *testing.T) {
	var puts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		puts.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	local := mustOpen(t, t.TempDir(), Options{})
	defer local.Close()
	ti := NewTiers(TierConfig{Local: local, Remotes: []Tier{{
		Name: "remote", ID: srv.URL,
		Backend:      NewRemote(srv.URL, RemoteOptions{}),
		WriteThrough: true,
	}}})
	for i := 0; i < 5; i++ {
		ti.Put(key(i), sim.Result{Cycles: uint64(i)})
	}
	ti.Close() // drains the write-behind queue
	if got := puts.Load(); got != 5 {
		t.Fatalf("remote saw %d PUTs, want 5", got)
	}
	if _, ok := local.Get(key(3)); !ok {
		t.Fatal("local tier missing a written key")
	}
}

// TestTierOrderSharded: with shard routing on, every key has a stable
// primary and the full candidate set is still consulted.
func TestTierOrderSharded(t *testing.T) {
	ti := NewTiers(TierConfig{
		Remotes: []Tier{
			{Name: "remote", ID: "http://a"},
			{Name: "remote", ID: "http://b"},
			{Name: "remote", ID: "http://c"},
		},
		Shards: 16,
	})
	defer ti.Close()
	primaries := map[int]bool{}
	for i := 0; i < 64; i++ {
		k := sweep.Key(fmt.Sprintf("%08x%056x", uint32(i)*2654435761, i))
		o1, o2 := ti.order(k), ti.order(k)
		if len(o1) != 3 {
			t.Fatalf("order dropped candidates: %v", o1)
		}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("order not deterministic for %s: %v vs %v", k[:8], o1, o2)
			}
		}
		primaries[o1[0]] = true
	}
	if len(primaries) < 2 {
		t.Fatalf("64 keys all routed to one primary; rendezvous not spreading")
	}
}

// BenchmarkTiersGet measures one Get through the result-cache stack at
// each tier: a memory hit (the warm path of every sweep), a local-disk
// hit, and a remote hit over the object API on httptest. The disk and
// remote cases empty the memory tier before each Get, so every lookup
// misses memory, reads the lower tier and promotes into memory.
func BenchmarkTiersGet(b *testing.B) {
	want := sim.Result{Cycles: 7, Instructions: 1000}
	get := func(b *testing.B, ti *Tiers, reset bool) {
		k := key(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if reset {
				ti.mem.Reset()
			}
			if res, ok := ti.Get(k); !ok || res.Cycles != want.Cycles {
				b.Fatalf("Get = (%+v, %v), want a hit", res, ok)
			}
		}
	}
	b.Run("memory", func(b *testing.B) {
		ti := NewTiers(TierConfig{})
		ti.Put(key(0), want)
		get(b, ti, false)
	})
	b.Run("local", func(b *testing.B) {
		local, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer local.Close()
		local.Put(key(0), want)
		get(b, NewTiers(TierConfig{Local: local}), true)
	})
	b.Run("remote", func(b *testing.B) {
		body, _ := json.Marshal(api.Object{Key: string(key(0)), Result: want})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(body)
		}))
		defer srv.Close()
		ti := NewTiers(TierConfig{Remotes: RemoteTiers(srv.URL, RemoteOptions{})})
		defer ti.Close()
		get(b, ti, true)
	})
}
