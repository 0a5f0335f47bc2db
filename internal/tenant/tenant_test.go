package tenant

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

const testFile = `{
  "tenants": [
    {"name": "paid", "keys": ["pk-1", "pk-2"], "priority": 10,
     "rate": 100, "burst": 200, "max_active": -1},
    {"name": "free", "key": "fk-1", "max_queued": 50},
    {"name": "anonymous", "max_active": 1}
  ]
}`

func loadTestRegistry(t *testing.T, defaults Limits) *Registry {
	t.Helper()
	reg, err := Load(strings.NewReader(testFile), defaults)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegistryAuthenticate(t *testing.T) {
	reg := loadTestRegistry(t, Limits{Rate: 2, MaxActive: 3, MaxQueued: 1000})

	paid, ok := reg.Authenticate("pk-1")
	if !ok || paid.Name != "paid" || paid.Priority != 10 {
		t.Fatalf("pk-1 → %+v, %v", paid, ok)
	}
	// Key rotation: both keys of a tenant resolve to the same identity.
	paid2, ok := reg.Authenticate("pk-2")
	if !ok || paid2 != paid {
		t.Errorf("pk-2 resolved to %+v, want the same tenant as pk-1", paid2)
	}
	// Explicit -1 overrides the server default with "unlimited".
	if paid.Limits.MaxActive != 0 {
		t.Errorf("paid MaxActive = %d, want 0 (unlimited)", paid.Limits.MaxActive)
	}
	if paid.Limits.Rate != 100 || paid.Limits.Burst != 200 {
		t.Errorf("paid rate/burst = %v/%d", paid.Limits.Rate, paid.Limits.Burst)
	}

	free, ok := reg.Authenticate("fk-1")
	if !ok || free.Name != "free" || free.Priority != 0 {
		t.Fatalf("fk-1 → %+v, %v", free, ok)
	}
	// Absent fields inherit the defaults; explicit values win.
	if free.Limits.MaxActive != 3 || free.Limits.MaxQueued != 50 || free.Limits.Rate != 2 {
		t.Errorf("free limits = %+v", free.Limits)
	}
	// Rate with no burst derives a burst.
	if free.Limits.Burst != 2 {
		t.Errorf("free burst = %d, want ceil(rate)", free.Limits.Burst)
	}

	// Empty key is anonymous; the file's anonymous entry applies.
	anon, ok := reg.Authenticate("")
	if !ok || anon.Name != Anonymous || anon.Limits.MaxActive != 1 {
		t.Fatalf("anonymous → %+v, %v", anon, ok)
	}
	if _, ok := reg.Authenticate("wrong"); ok {
		t.Error("unknown key authenticated")
	}
	if reg.Len() != 3 {
		t.Errorf("Len = %d, want 3", reg.Len())
	}
}

func TestRegistryLoadRejects(t *testing.T) {
	cases := []struct{ name, body string }{
		{"unknown field", `{"tenants": [{"name": "a", "key": "k", "color": "red"}]}`},
		{"no name", `{"tenants": [{"key": "k"}]}`},
		{"no keys", `{"tenants": [{"name": "a"}]}`},
		{"empty key", `{"tenants": [{"name": "a", "keys": [""]}]}`},
		{"duplicate name", `{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`},
		{"shared key", `{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`},
		{"keyed anonymous", `{"tenants": [{"name": "anonymous", "key": "k"}]}`},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.body), Limits{}); err == nil {
			t.Errorf("%s: loaded without error", c.name)
		}
	}
}

func TestReserverBoundsAndCleanup(t *testing.T) {
	r := NewReserver()
	if err := r.Acquire("alice", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire("alice", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire("alice", 1, 2); !errors.Is(err, ErrOverLimit) {
		t.Fatalf("third acquire = %v, want ErrOverLimit", err)
	}
	// The failed acquire must not have bumped the count.
	if got := r.Held("alice"); got != 2 {
		t.Fatalf("held = %d after failed acquire, want 2", got)
	}
	// Unlimited tenants never fail.
	if err := r.Acquire("bob", 1000, 0); err != nil {
		t.Fatal(err)
	}
	if r.Tenants() != 2 {
		t.Errorf("Tenants = %d, want 2", r.Tenants())
	}
	if err := r.Release("alice", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("bob", 1000); err != nil {
		t.Fatal(err)
	}
	// Zero-count entries are deleted: the map is empty again.
	if r.Tenants() != 0 {
		t.Errorf("Tenants = %d after full release, want 0 (unbounded-memory regression)", r.Tenants())
	}
	// A fictitious release is a loud bookkeeping error, not a silent
	// negative count.
	if err := r.Release("alice", 1); !errors.Is(err, ErrNoReservation) {
		t.Errorf("fictitious release = %v, want ErrNoReservation", err)
	}
	if r.Tenants() != 0 || r.Held("alice") != 0 {
		t.Errorf("state corrupted by fictitious release: %v", r.Snapshot())
	}
}

func TestLimiterPacing(t *testing.T) {
	l := NewLimiter()
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	// Burst admits back-to-back, then pacing kicks in.
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a", 2, 3); !ok {
			t.Fatalf("request %d inside burst denied", i)
		}
	}
	ok, wait := l.Allow("a", 2, 3)
	if ok {
		t.Fatal("request over burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %v, want (0, 500ms]-ish at rate 2", wait)
	}
	// After the advertised wait a token is back.
	now = now.Add(wait)
	if ok, _ := l.Allow("a", 2, 3); !ok {
		t.Fatal("request after advertised wait still denied")
	}

	// Unlimited rate never consults (or creates) a bucket.
	if ok, _ := l.Allow("b", 0, 0); !ok {
		t.Fatal("unlimited tenant denied")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the limited tenant has a bucket)", l.Len())
	}

	// Once fully refilled, the bucket is pruned — absent and full are the
	// same state, so memory stays bounded over tenant churn.
	now = now.Add(time.Hour)
	l.ops = pruneEvery - 1
	l.Allow("c", 2, 3)
	if l.Len() != 1 {
		t.Errorf("Len = %d after prune, want 1 (a's refilled bucket deleted, c's live)", l.Len())
	}
}

// TestLimiterPruneHeterogeneousRates pins that a prune sweep triggered
// by a high-rate tenant judges every bucket by its *own* rate and burst:
// deleting a slow tenant's drained bucket would recreate it full on the
// owner's next call, handing out a free burst.
func TestLimiterPruneHeterogeneousRates(t *testing.T) {
	l := NewLimiter()
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	// "slow" spends its whole burst: 0 tokens left, next token ~17 min out.
	if ok, _ := l.Allow("slow", 0.001, 1); !ok {
		t.Fatal("slow's first request denied")
	}
	if ok, _ := l.Allow("slow", 0.001, 1); ok {
		t.Fatal("slow's second request admitted inside drained burst")
	}

	// One second later a fast tenant's call triggers a prune. Judged by the
	// caller's rate (100/s), slow's bucket would look refilled and die.
	now = now.Add(time.Second)
	l.ops = pruneEvery - 1
	l.Allow("fast", 100, 100)
	if l.Len() != 2 {
		t.Fatalf("Len = %d after fast-rate prune, want 2 (slow's drained bucket must survive)", l.Len())
	}
	if ok, _ := l.Allow("slow", 0.001, 1); ok {
		t.Fatal("slow admitted right after a fast-rate prune: bucket was deleted and recreated full")
	}
}

func TestFairQueuePriorityAndDeficit(t *testing.T) {
	q := NewFairQueue(3)
	for i := 0; i < 3; i++ {
		if err := q.Acquire(context.Background(), "heavy", 0); err != nil {
			t.Fatal(err)
		}
	}

	// Three waiters on a saturated pool, queued in this order: a fourth
	// slot for the heavy tenant, a light tenant at the same tier, and a
	// paid tenant at a higher tier.
	grants := make(chan string, 3)
	acquire := func(who string, prio int) {
		go func() {
			if err := q.Acquire(context.Background(), who, prio); err == nil {
				grants <- who
			}
		}()
		// Deterministic arrival order: wait until this waiter is queued.
		for deadline := time.Now().Add(5 * time.Second); ; {
			q.mu.Lock()
			queued := len(q.waiters) > 0 && q.waiters[len(q.waiters)-1].who == who
			q.mu.Unlock()
			if queued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued", who)
			}
			time.Sleep(time.Millisecond)
		}
	}
	acquire("heavy", 0)
	acquire("light", 0)
	acquire("paid", 5)

	// Release heavy's slots one by one. Expected grants: paid first
	// (higher tier), then light (same tier as heavy's waiter but heavy
	// still holds slots — deficit tie-break), then heavy (FIFO, last).
	for _, expect := range []string{"paid", "light", "heavy"} {
		q.Release("heavy")
		select {
		case got := <-grants:
			if got != expect {
				t.Fatalf("grant order: got %q, want %q", got, expect)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no grant for %q", expect)
		}
	}
	for _, who := range []string{"paid", "light", "heavy"} {
		q.Release(who)
	}
	if q.InUse() != 0 || q.Tenants() != 0 {
		t.Errorf("slots still held after drain: in-use %d, tenants %d", q.InUse(), q.Tenants())
	}
}

func TestFairQueueAcquireCancel(t *testing.T) {
	q := NewFairQueue(1)
	if err := q.Acquire(context.Background(), "a", 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Acquire(ctx, "b", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled acquire = %v", err)
	}
	q.Release("a")
	// The canceled waiter left no debris: the slot is free again.
	if err := q.Acquire(context.Background(), "c", 0); err != nil {
		t.Fatal(err)
	}
	q.Release("c")
	if q.InUse() != 0 || q.Tenants() != 0 {
		t.Errorf("in-use %d, tenants %d after drain", q.InUse(), q.Tenants())
	}
}

func TestAdmissionContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := FromContext(ctx); ok {
		t.Fatal("bare context reported admission metadata")
	}
	ctx = NewContext(ctx, Admission{Tenant: "t", Priority: 3})
	a, ok := FromContext(ctx)
	if !ok || a.Tenant != "t" || a.Priority != 3 {
		t.Fatalf("FromContext = %+v, %v", a, ok)
	}
}

// TestMapsReleaseAfterChurn drives each per-tenant map through many
// distinct tenant ids, the way a server with tenant churn would: once
// the traffic is done, no map may keep an entry for a tenant that holds
// nothing.
func TestMapsReleaseAfterChurn(t *testing.T) {
	const ids = 10 * pruneEvery
	name := func(i int) string { return fmt.Sprintf("tenant-%d", i) }

	t.Run("Reserver.counts", func(t *testing.T) {
		r := NewReserver()
		for i := 0; i < ids; i++ {
			if err := r.Acquire(name(i), 2, 3); err != nil {
				t.Fatal(err)
			}
			if err := r.Acquire(name(i), 2, 3); !errors.Is(err, ErrOverLimit) {
				t.Fatalf("over-limit Acquire: err %v", err)
			}
			if err := r.Release(name(i), 1); err != nil {
				t.Fatal(err)
			}
			if err := r.Release(name(i), 1); err != nil {
				t.Fatal(err)
			}
			if err := r.Release(name(i), 1); !errors.Is(err, ErrNoReservation) {
				t.Fatalf("fictitious Release: err %v", err)
			}
		}
		if n := len(r.counts); n != 0 {
			t.Errorf("counts holds %d tenants after every reservation was returned", n)
		}
	})

	t.Run("FairQueue.held", func(t *testing.T) {
		q := NewFairQueue(2)
		var wg sync.WaitGroup
		for i := 0; i < ids; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if i%4 == 0 {
					cancel() // gives up while queued, or races the grant
				}
				if q.Acquire(ctx, name(i), i%3) == nil {
					q.Release(name(i))
				}
			}(i)
		}
		wg.Wait()
		q.mu.Lock()
		held, waiting := len(q.held), len(q.waiters)
		q.mu.Unlock()
		if held != 0 || waiting != 0 {
			t.Errorf("held holds %d tenants and %d waiters remain after every slot was released", held, waiting)
		}
	})

	// A full bucket and no bucket are the same state, so the limiter
	// deletes refilled buckets on its next prune. Afterwards only the
	// bucket its latest caller is still draining remains.
	t.Run("Limiter.buckets", func(t *testing.T) {
		l := NewLimiter()
		now := time.Unix(1000, 0)
		l.now = func() time.Time { return now }
		for i := 0; i < ids; i++ {
			if ok, _ := l.Allow(name(i), 1, 3); !ok {
				t.Fatalf("%s denied inside its burst", name(i))
			}
		}
		now = now.Add(time.Hour)
		for i := 0; i < pruneEvery; i++ {
			l.Allow("probe", 1, 3)
		}
		if _, ok := l.buckets["probe"]; !ok || len(l.buckets) != 1 {
			t.Errorf("buckets holds %d tenants once refilled and pruned, want only the probe's", len(l.buckets))
		}
	})
}
