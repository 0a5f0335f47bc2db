package store

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Hedging policy: a second backend is tried once the first has been
// silent for hedgeDelay, and a whole read-through gives up after
// fetchBudget (falling back to simulation, never failing the sweep).
const (
	hedgeDelay  = 50 * time.Millisecond
	fetchBudget = 5 * time.Second
)

// Tier is one named remote backend inside a Tiers stack.
type Tier struct {
	// Name labels the tier in metrics ("remote", "peer").
	Name string
	// ID is a stable identity for rendezvous ranking when TierConfig
	// .Shards routes keys across several remotes; usually the tier's
	// URL. Empty falls back to Name plus position.
	ID      string
	Backend Backend
	// WriteThrough replicates local writes to this tier asynchronously
	// (write-behind); read-only tiers (the fleet-peer tier, whose
	// members populate themselves by simulating) leave it false.
	WriteThrough bool
}

// TierConfig assembles a result-cache stack. Every stack starts with an
// in-memory tier; the zero value is a memory-only cache.
type TierConfig struct {
	// Local is the authoritative on-node tier; nil means none (a pure
	// read-through front, e.g. a fresh coordinator reading the fleet).
	Local *Store
	// Remotes are consulted on a local miss. The first (after shard
	// ranking, if configured) is the primary; the rest are hedges.
	Remotes []Tier
	// Shards, when > 0 with several remotes, rendezvous-ranks the
	// remotes per key so each key has a consistent primary.
	Shards int
}

// TierStats is a point-in-time snapshot of read-through activity.
type TierStats struct {
	// Hits counts cache hits per tier name ("memory", "local", then the
	// remote tiers' names); each lookup counts at most once.
	Hits map[string]uint64 `json:"hits"`
	// Misses counts read-throughs that exhausted every tier and fell
	// back to simulation.
	Misses uint64 `json:"misses"`
	// HedgedFetches counts secondary fetches fired because an earlier
	// one was still silent past the hedge budget; HedgeWins counts the
	// reads those hedges won.
	HedgedFetches uint64 `json:"hedged_fetches"`
	HedgeWins     uint64 `json:"hedge_wins"`
	// RemoteErrors counts failed fetch/replicate attempts (transport
	// errors, non-2xx, corrupt documents). A clean 404 is a miss, not
	// an error.
	RemoteErrors uint64 `json:"remote_errors"`
	// Promotions counts remote hits copied into the local tier.
	Promotions uint64 `json:"promotions"`
	// WriteBehindDrops counts replications skipped because the
	// write-behind queue was full or the stack was closed.
	WriteBehindDrops uint64 `json:"write_behind_drops"`
}

// Tiers is the result cache: a memory tier over an optional local
// Store over hedged remote backends. It satisfies sweep.Cache: Get
// walks memory → local → remotes (hedged), promoting lower-tier hits
// into memory and remote hits into the local tier too; Put writes
// memory and local and replicates to write-through remotes
// asynchronously. Close drains the replication queue.
type Tiers struct {
	mem        *sweep.MemCache
	local      *Store
	remotes    []Tier
	shards     int
	hedgeAfter time.Duration

	// hits is indexed by tier position: tierMemory, tierLocal, then
	// tierRemote+i for remote i.
	hits []atomic.Uint64

	misses, hedged, hedgeWins, remoteErrors, promotions, drops atomic.Uint64

	wbMu     sync.Mutex // orders write-behind sends before Close
	wbClosed bool
	wb       chan wbItem
	wbDone   chan struct{}
}

// Tier positions in Tiers.hits.
const (
	tierMemory = iota
	tierLocal
	tierRemote
)

type wbItem struct {
	k   sweep.Key
	res sim.Result
}

// writeBehindDepth bounds the replication queue; beyond it, writes are
// dropped (and counted) rather than stalling the sweep hot path.
const writeBehindDepth = 256

// NewTiers assembles a result-cache stack from cfg.
func NewTiers(cfg TierConfig) *Tiers {
	t := &Tiers{
		mem:        sweep.NewMemCache(),
		local:      cfg.Local,
		remotes:    cfg.Remotes,
		shards:     cfg.Shards,
		hedgeAfter: hedgeDelay,
		hits:       make([]atomic.Uint64, tierRemote+len(cfg.Remotes)),
	}
	for _, ti := range cfg.Remotes {
		if ti.WriteThrough {
			t.wb = make(chan wbItem, writeBehindDepth)
			t.wbDone = make(chan struct{})
			go t.writeBehind()
			break
		}
	}
	return t
}

// Get implements sweep.Cache over the tier stack.
func (t *Tiers) Get(k sweep.Key) (sim.Result, bool) {
	if res, ok := t.mem.Get(k); ok {
		t.hits[tierMemory].Add(1)
		return res, true
	}
	if t.local != nil {
		if res, ok := t.local.Get(k); ok {
			t.hits[tierLocal].Add(1)
			t.mem.Put(k, res)
			return res, true
		}
	}
	if len(t.remotes) > 0 {
		if res, i, ok := t.fetch(k); ok {
			t.hits[tierRemote+i].Add(1)
			t.mem.Put(k, res)
			if t.local != nil {
				// Promote: the next process over this store hits locally.
				t.local.Put(k, res)
				t.promotions.Add(1)
			}
			return res, true
		}
	}
	t.misses.Add(1)
	return sim.Result{}, false
}

// fetchReply is one backend's answer inside a hedged fetch.
type fetchReply struct {
	res    sim.Result
	ok     bool
	err    error
	idx    int // index into t.remotes
	hedged bool
}

// fetch runs the hedged read-through over the remote tiers: fire the
// primary; if it stays silent past the hedge budget, fire the next tier
// too (a hedge); if it answers with a miss or an error, fail over to
// the next tier immediately. First success wins and the shared context
// cancels every loser. The reply channel is buffered to the fan-out, so
// canceled losers never leak a goroutine.
func (t *Tiers) fetch(k sweep.Key) (sim.Result, int, bool) {
	order := t.order(k)
	ctx, cancel := context.WithTimeout(context.Background(), fetchBudget)
	defer cancel()
	ch := make(chan fetchReply, len(order))
	launched := 0
	launch := func(hedged bool) {
		i := order[launched]
		launched++
		if hedged {
			t.hedged.Add(1)
		}
		go func() {
			res, ok, err := t.remotes[i].Backend.Get(ctx, k)
			ch <- fetchReply{res: res, ok: ok, err: err, idx: i, hedged: hedged}
		}()
	}
	launch(false)
	timer := time.NewTimer(t.hedgeAfter)
	defer timer.Stop()
	for replies := 0; ; {
		select {
		case r := <-ch:
			replies++
			if r.err != nil {
				t.remoteErrors.Add(1)
			}
			if r.ok {
				if r.hedged {
					t.hedgeWins.Add(1)
				}
				return r.res, r.idx, true
			}
			if launched < len(order) {
				launch(false) // failover, not a hedge: the loser already answered
			} else if replies == launched {
				return sim.Result{}, 0, false
			}
		case <-timer.C:
			if launched < len(order) {
				launch(true)
				timer.Reset(t.hedgeAfter)
			}
		case <-ctx.Done():
			return sim.Result{}, 0, false
		}
	}
}

// order returns remote indices in fetch order: flag order, or
// rendezvous-ranked per key when shard routing is on, so every key has
// a consistent primary across the fleet.
func (t *Tiers) order(k sweep.Key) []int {
	idx := make([]int, len(t.remotes))
	for i := range idx {
		idx[i] = i
	}
	if t.shards <= 0 || len(t.remotes) <= 1 {
		return idx
	}
	sh := ShardOf(k, t.shards)
	score := make([]uint64, len(t.remotes))
	for i, ti := range t.remotes {
		score[i] = RendezvousScore(ti.identity(i), sh)
	}
	// Insertion sort by descending score: the remote list is tiny.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && score[idx[j]] > score[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

func (ti Tier) identity(pos int) string {
	if ti.ID != "" {
		return ti.ID
	}
	return ti.Name + "#" + strconv.Itoa(pos)
}

// Put implements sweep.Cache: memory and durable local writes, then
// asynchronous replication to write-through remotes. After Close the
// replication is dropped (and counted); the writes still land.
func (t *Tiers) Put(k sweep.Key, res sim.Result) {
	t.mem.Put(k, res)
	if t.local != nil {
		t.local.Put(k, res)
	}
	if t.wb == nil {
		return
	}
	t.wbMu.Lock()
	defer t.wbMu.Unlock()
	if !t.wbClosed {
		select {
		case t.wb <- wbItem{k: k, res: res}:
			return
		default:
		}
	}
	t.drops.Add(1)
}

// writeBehind is the single replication worker: best-effort, bounded,
// off the sweep hot path. Failures are counted and abandoned — the
// result stays durable locally and a later read-through repopulates.
func (t *Tiers) writeBehind() {
	defer close(t.wbDone)
	for it := range t.wb {
		for _, ti := range t.remotes {
			if !ti.WriteThrough {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), fetchBudget)
			if err := ti.Backend.Put(ctx, it.k, it.res); err != nil {
				t.remoteErrors.Add(1)
			}
			cancel()
		}
	}
}

// Close drains the write-behind queue. The local tier is owned by the
// caller and closed separately. Close is idempotent, and Puts after it
// are safe.
func (t *Tiers) Close() {
	if t.wb == nil {
		return
	}
	t.wbMu.Lock()
	if !t.wbClosed {
		t.wbClosed = true
		close(t.wb)
	}
	t.wbMu.Unlock()
	<-t.wbDone
}

// Stats returns a snapshot of read-through counters.
func (t *Tiers) Stats() TierStats {
	s := TierStats{
		Hits:             make(map[string]uint64),
		Misses:           t.misses.Load(),
		HedgedFetches:    t.hedged.Load(),
		HedgeWins:        t.hedgeWins.Load(),
		RemoteErrors:     t.remoteErrors.Load(),
		Promotions:       t.promotions.Load(),
		WriteBehindDrops: t.drops.Load(),
	}
	for i := range t.hits {
		n := t.hits[i].Load()
		if n == 0 {
			continue
		}
		switch i {
		case tierMemory:
			s.Hits["memory"] += n
		case tierLocal:
			s.Hits["local"] += n
		default:
			s.Hits[t.remotes[i-tierRemote].Name] += n
		}
	}
	return s
}
