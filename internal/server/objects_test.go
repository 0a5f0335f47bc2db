// Object-API and remote-store-tier tests: the /v1/objects endpoints
// serve a node's store to the fleet, and a second server with a remote
// tier pointed at the first resolves a whole sweep without simulating.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/rf/api"
)

func objKey(i int) string { return fmt.Sprintf("%064x", i+1) }

func putObject(t *testing.T, base, pathKey string, obj api.Object) *http.Response {
	t.Helper()
	body, _ := json.Marshal(obj)
	req, err := http.NewRequest(http.MethodPut, base+"/v1/objects/"+pathKey, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestObjectsAPI(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Objects: st.Backend()})

	// Missing object: 404, so a remote tier treats it as a clean miss.
	resp, err := http.Get(ts.URL + "/v1/objects/" + objKey(0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing object = %d, want 404", resp.StatusCode)
	}

	// Malformed key: 400, never a store probe.
	resp, err = http.Get(ts.URL + "/v1/objects/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET malformed key = %d, want 400", resp.StatusCode)
	}

	// Body key must match the path key — a corrupt replication can
	// never poison some other key's slot.
	resp = putObject(t, ts.URL, objKey(0), api.Object{Key: objKey(1), Result: sim.Result{Cycles: 3}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT with mismatched body key = %d, want 400", resp.StatusCode)
	}
	if _, ok := st.Get(sweep.Key(objKey(0))); ok {
		t.Fatal("mismatched PUT landed in the store")
	}

	// Round trip.
	resp = putObject(t, ts.URL, objKey(0), api.Object{Key: objKey(0), Result: sim.Result{Cycles: 3}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/objects/" + objKey(0))
	if err != nil {
		t.Fatal(err)
	}
	var obj api.Object
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if obj.Key != objKey(0) || obj.Result.Cycles != 3 {
		t.Fatalf("GET round trip = %+v", obj)
	}

	// HEAD probes existence without a body.
	resp, err = http.Head(ts.URL + "/v1/objects/" + objKey(0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD = %d, want 200", resp.StatusCode)
	}

	// The store gauge families are exported.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"rfserved_store_objects 1", "rfserved_store_bytes "} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRemoteTierWarmResubmit is the fleet-store acceptance pin: a sweep
// already resolved on server A is resubmitted to a fresh server B whose
// only remote tier is A's object API. B must complete it with zero
// simulations and stream bytes identical to A's own warm stream.
func TestRemoteTierWarmResubmit(t *testing.T) {
	stA, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	_, tsA := newTestServer(t, Config{
		Cache:   store.NewTiers(store.TierConfig{Local: stA}),
		Objects: stA.Backend(),
	})

	// Cold run on A populates its store; the second run is the warm
	// reference stream (every row cached:true).
	ack := submit(t, tsA.URL, testSpec)
	streamAll(t, tsA.URL, ack.ResultsURL)
	ack = submit(t, tsA.URL, testSpec)
	warmA := streamAll(t, tsA.URL, ack.ResultsURL)

	// Server B: fresh local store, remote tier pointing at A.
	stB, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	tiers := store.NewTiers(store.TierConfig{
		Local:   stB,
		Remotes: store.RemoteTiers(tsA.URL, store.RemoteOptions{}),
	})
	defer tiers.Close()
	var simulated atomic.Int64
	_, tsB := newTestServer(t, Config{
		Cache: tiers,
		Simulate: func(j sweep.Job) sim.Result {
			simulated.Add(1)
			return fakeSim(j)
		},
	})

	ack = submit(t, tsB.URL, testSpec)
	gotB := streamAll(t, tsB.URL, ack.ResultsURL)
	if n := simulated.Load(); n != 0 {
		t.Fatalf("server B simulated %d jobs, want 0 (all remote-tier hits)", n)
	}
	if gotB != warmA {
		t.Fatalf("server B stream differs from A's warm stream:\nA: %s\nB: %s", warmA, gotB)
	}
	st := getStatus(t, tsB.URL, ack.StatusURL)
	if st.Simulated != 0 || st.Cached != st.Total {
		t.Fatalf("status = %+v, want all cached", st)
	}
	ts := tiers.Stats()
	if ts.Hits["remote"] == 0 || ts.Misses != 0 {
		t.Fatalf("tier stats = %+v, want remote hits and no misses", ts)
	}
	if ts.Promotions == 0 {
		t.Fatalf("tier stats = %+v, want promotions into B's local store", ts)
	}

	// The tier counter families are exported on B's /metrics.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`rfserved_store_tier_hits{tier="remote"}`,
		"rfserved_store_tier_misses 0",
		"rfserved_store_hedged_fetches ",
		"rfserved_store_hedge_wins ",
		"rfserved_store_remote_errors 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A third submit resolves from B's own promoted store even with A
	// gone: kill A and resubmit.
	tsA.Close()
	ack = submit(t, tsB.URL, testSpec)
	gotB2 := streamAll(t, tsB.URL, ack.ResultsURL)
	if gotB2 != warmA {
		t.Fatal("server B stream changed after losing the remote tier")
	}
	if n := simulated.Load(); n != 0 {
		t.Fatalf("server B simulated %d jobs after promotion, want 0", n)
	}
}

// TestTierHitsCountOnce: with the whole result cache one store.NewTiers
// stack (memory → local → remote), /metrics counts every lookup exactly
// once — the per-tier hits sum to the runner's cache hits, and a miss on
// every tier is one runner miss. The three submits reach three tiers: a
// cold run (misses), a warm resubmit (memory), and a sweep first run on
// the remote node (remote).
func TestTierHitsCountOnce(t *testing.T) {
	stB, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	_, tsB := newTestServer(t, Config{
		Cache:   store.NewTiers(store.TierConfig{Local: stB}),
		Objects: stB.Backend(),
	})

	stA, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	tiers := store.NewTiers(store.TierConfig{
		Local:   stA,
		Remotes: store.RemoteTiers(tsB.URL, store.RemoteOptions{}),
	})
	defer tiers.Close()
	_, tsA := newTestServer(t, Config{Cache: tiers})

	otherSpec := strings.Replace(testSpec, `"instructions": 3000`, `"instructions": 4000`, 1)
	run := func(base, spec string) {
		ack := submit(t, base, spec)
		streamAll(t, base, ack.ResultsURL)
	}
	run(tsA.URL, testSpec)  // cold: every tier misses
	run(tsA.URL, testSpec)  // warm: memory hits
	run(tsB.URL, otherSpec) // populate the remote node
	run(tsA.URL, otherSpec) // cross-node: remote hits

	metrics := getMetrics(t, tsA.URL)
	value := func(name string) uint64 {
		t.Helper()
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				var n uint64
				if _, err := fmt.Sscan(v, &n); err != nil {
					t.Fatalf("metric %s: %v", name, err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	perTier := map[string]uint64{}
	var tierHits uint64
	for _, tier := range []string{"memory", "local", "remote"} {
		if strings.Contains(metrics, `rfserved_store_tier_hits{tier="`+tier+`"}`) {
			perTier[tier] = value(`rfserved_store_tier_hits{tier="` + tier + `"}`)
			tierHits += perTier[tier]
		}
	}
	hits, misses := value("rfserved_cache_hits_total"), value("rfserved_cache_misses_total")
	if tierHits != hits {
		t.Errorf("tier hits %v sum to %d, runner counted %d cache hits", perTier, tierHits, hits)
	}
	if tm := value("rfserved_store_tier_misses"); tm != misses {
		t.Errorf("tier misses = %d, runner counted %d cache misses", tm, misses)
	}
	if perTier["memory"] != 6 || perTier["remote"] != 6 || misses != 6 {
		t.Errorf("tier hits %v, misses %d; want memory:6 remote:6 and 6 misses", perTier, misses)
	}
}
