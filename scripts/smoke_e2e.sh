#!/usr/bin/env bash
# End-to-end smoke test for the rfserved sweep service. CI runs this on
# every PR; it also runs locally (bash scripts/smoke_e2e.sh).
#
# It proves the seven service-level guarantees:
#   1. The NDJSON stream of a submitted sweep is byte-identical to an
#      `rfbatch -ndjson` run of the same spec.
#   2. Resubmitting the spec to the same server performs zero simulations
#      (100% cache hits).
#   3. The disk store survives a server restart: a fresh process over the
#      same store directory still serves the sweep entirely from cache.
#   4. A 1-coordinator/2-worker fleet over a fresh store streams the
#      same bytes as single-node rfserved (every job executed remotely),
#      and resubmitting to the coordinator is 100% warm cache hits.
#   5. Multi-tenant admission: wrong keys get 401, an over-quota tenant
#      gets 429 + Retry-After while another tenant's sweep streams the
#      same bytes as rfbatch, anonymous callers still work, and /metrics
#      grows per-tenant rows.
#   6. Crash recovery: a coordinator SIGKILLed mid-sweep and restarted on
#      the same -wal-dir resumes the sweep, streams NDJSON byte-identical
#      to an uninterrupted run, and re-simulates zero completed jobs.
#   7. Sharded fleet store: workers keep results in their own stores and
#      advertise shard inventory; a fresh, storeless coordinator resolves
#      a resubmitted sweep 100% from peer-tier reads (zero simulations),
#      and a new node pointed at a dead peer first (-store-remote) still
#      completes the sweep byte-identically via hedged failover.
#   8. Result warehouse: a coordinator with -warehouse-dir answers
#      rfbatch -query (the Figure 6 series, pareto, aggregates)
#      byte-identically to a local re-aggregation of the streamed NDJSON
#      rows, and deleting the warehouse directory + restarting rebuilds
#      it from the content-addressed store with identical answers and
#      zero re-simulation.
#
# Usage: smoke_e2e.sh [phase...]   (default: all phases, in order)
# CI splits this into a smoke job (1 2 3 4 5 7 8) and a recovery job (6).
# Phases 2 and 3 build on phase 1's sweep and must run with it; phases 6,
# 7 and 8 are fully self-contained.
#
# On failure, logs and WAL directories are copied to $SMOKE_ARTIFACTS
# (when set) so CI can upload them.
#
# Requires: go, curl, jq.
set -euo pipefail

phases="${*:-1 2 3 4 5 6 7 8}"
want() { case " $phases " in *" $1 "*) return 0 ;; *) return 1 ;; esac }
for p in 2 3; do
  if want "$p" && ! want 1; then
    echo "smoke: phase $p builds on phase 1's sweep; run them together" >&2
    exit 2
  fi
done

work="$(mktemp -d)"
bin="$work/bin"
storedir="$work/store"
mkdir -p "$bin"
server_pid=""
pids=()

# Every background rfserved is tracked in pids and killed from the EXIT
# trap — TERM first, then KILL for anything that will not drain — so a
# failure in any phase can never leak a server that poisons a later
# phase's ports or outlives the test.
cleanup() {
  status=$?
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in ${pids[@]+"${pids[@]}"}; do
    for _ in $(seq 1 20); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.1
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS"
    cp "$work"/*.log "$SMOKE_ARTIFACTS"/ 2>/dev/null || true
    cp "$work"/*.status "$SMOKE_ARTIFACTS"/ 2>/dev/null || true
    [ -d "$work/wal" ] && cp -r "$work/wal" "$SMOKE_ARTIFACTS/wal" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

# reap kills and forgets every tracked server; each phase that owns its
# servers calls it when done so the next phase starts clean.
reap() {
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  pids=()
  server_pid=""
}

die() { echo "smoke: FAIL: $*" >&2; exit 1; }

echo "smoke: building rfbatch and rfserved"
go build -o "$bin/rfbatch" ./cmd/rfbatch
go build -o "$bin/rfserved" ./cmd/rfserved

echo "smoke: -version must print the API schema version"
"$bin/rfbatch" -version | grep -q "schema 1" \
  || die "rfbatch -version missing schema stamp: $("$bin/rfbatch" -version)"
"$bin/rfserved" -version | grep -q "schema 1" \
  || die "rfserved -version missing schema stamp: $("$bin/rfserved" -version)"

cat > "$work/spec.json" <<'EOF'
{
  "name": "smoke",
  "instructions": 5000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle"},
    {"kind": "rfcache", "caching": ["nonbypass", "ready"]}
  ]
}
EOF
"$bin/rfbatch" -spec "$work/spec.json" -ndjson > "$work/rfbatch.ndjson" 2> "$work/rfbatch.log"

# start_server [extra rfserved flags...]
start_server() {
  rm -f "$work/addr"
  "$bin/rfserved" -addr 127.0.0.1:0 -addr-file "$work/addr" "$@" \
    2>> "$work/rfserved.log" &
  server_pid=$!
  pids+=("$server_pid")
  for _ in $(seq 1 100); do
    [ -s "$work/addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$work/rfserved.log" >&2; die "rfserved died at startup"; }
    sleep 0.1
  done
  [ -s "$work/addr" ] || die "rfserved never wrote its address file"
  base="http://$(cat "$work/addr")"
}

stop_server() {
  kill "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
}

# submit <outfile-prefix>: POST the spec, stream results, fetch status.
submit() {
  local prefix="$1"
  local ack
  ack="$(curl -sfS -X POST --data-binary @"$work/spec.json" "$base/v1/sweeps")"
  local id results
  id="$(echo "$ack" | jq -r .id)"
  results="$(echo "$ack" | jq -r .results_url)"
  [ -n "$id" ] && [ "$id" != null ] || die "submission not acknowledged: $ack"
  # The stream blocks until the sweep finishes, then holds every row.
  curl -sfS "$base$results" > "$work/$prefix.ndjson"
  curl -sfS "$base/v1/sweeps/$id" > "$work/$prefix.status"
}

if want 1; then
  echo "smoke: starting rfserved (fresh store)"
  start_server -store "$storedir"

  echo "smoke: /v1/version must advertise schema 1"
  curl -sfS "$base/v1/version" | jq -e '.schema == 1 and (.module | length) > 0' > /dev/null \
    || die "/v1/version wrong: $(curl -sfS "$base/v1/version")"

  echo "smoke: 1/6 streamed rows must be byte-identical to rfbatch"
  submit cold
  if ! cmp -s "$work/cold.ndjson" "$work/rfbatch.ndjson"; then
    diff -u "$work/rfbatch.ndjson" "$work/cold.ndjson" >&2 || true
    die "rfserved stream differs from rfbatch output"
  fi
  rows="$(wc -l < "$work/cold.ndjson")"
  [ "$rows" -eq 6 ] || die "expected 6 result rows, got $rows"
  echo "smoke:     $rows rows identical"
fi

if want 2; then
  echo "smoke: 2/6 resubmission must be 100% cache hits"
  submit warm
  jq -e '.state == "done" and .cached == .total and .simulated == 0' \
    "$work/warm.status" > /dev/null \
    || die "resubmission was not fully cached: $(cat "$work/warm.status")"
  echo "smoke:     $(jq -r .cached "$work/warm.status")/$(jq -r .total "$work/warm.status") rows from cache"
fi

if want 3; then
  echo "smoke: 3/6 store must survive a server restart"
  stop_server
  start_server -store "$storedir"
  submit restart
  jq -e '.state == "done" and .cached == .total and .simulated == 0' \
    "$work/restart.status" > /dev/null \
    || die "restarted server re-simulated: $(cat "$work/restart.status")"
  # Rows after restart match the cold run except for cache provenance.
  if ! cmp -s <(jq -c 'del(.cached)' "$work/cold.ndjson") \
              <(jq -c 'del(.cached)' "$work/restart.ndjson"); then
    die "rows changed across server restart"
  fi
  echo "smoke:     restarted server served $(jq -r .cached "$work/restart.status") rows from the disk store"

  metrics="$(curl -sfS "$base/metrics")"
  echo "$metrics" | grep -q '^rfserved_cache_hits_total' \
    || die "metrics endpoint missing cache counters"
fi
reap

if want 4; then
  echo "smoke: 4/6 coordinator + 2 workers must match single-node byte-for-byte"
  # A fresh store: every job must travel through the fleet, nothing is
  # pre-warmed.
  fleetstore="$work/fleetstore"
  rm -f "$work/coord-addr"
  "$bin/rfserved" -dispatch -lease-ms 3000 -addr 127.0.0.1:0 \
    -addr-file "$work/coord-addr" -store "$fleetstore" \
    2>> "$work/coordinator.log" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    [ -s "$work/coord-addr" ] && break
    sleep 0.1
  done
  [ -s "$work/coord-addr" ] || { cat "$work/coordinator.log" >&2; die "coordinator never wrote its address file"; }
  coord="http://$(cat "$work/coord-addr")"

  for i in 1 2; do
    "$bin/rfserved" -join "$coord" -worker-name "worker$i" -addr 127.0.0.1:0 \
      2>> "$work/worker$i.log" &
    pids+=("$!")
  done
  for _ in $(seq 1 100); do
    n="$(curl -sfS "$coord/v1/workers" | jq '.workers | length')" || n=0
    [ "$n" = 2 ] && break
    sleep 0.1
  done
  [ "$n" = 2 ] || die "expected 2 registered workers, got $n"
  echo "smoke:     2 workers registered"

  # Drive the fleet through rfbatch -remote: submit, stream, reassemble.
  "$bin/rfbatch" -spec "$work/spec.json" -remote "$coord" -ndjson \
    > "$work/fleet.ndjson" 2>> "$work/rfbatch-remote.log" \
    || { cat "$work/rfbatch-remote.log" >&2; die "rfbatch -remote failed"; }
  if ! cmp -s "$work/fleet.ndjson" "$work/rfbatch.ndjson"; then
    diff -u "$work/rfbatch.ndjson" "$work/fleet.ndjson" >&2 || true
    die "fleet stream differs from single-node rfbatch output"
  fi
  echo "smoke:     $(wc -l < "$work/fleet.ndjson") rows identical to single-node"

  metrics="$(curl -sfS "$coord/metrics")"
  echo "$metrics" | grep -q '^rfserved_dispatch_fallbacks_total 0$' \
    || die "coordinator fell back to local simulation: $(echo "$metrics" | grep dispatch)"
  echo "$metrics" | grep -q '^rfserved_dispatch_results_total 6$' \
    || die "fleet did not execute all 6 jobs remotely: $(echo "$metrics" | grep dispatch)"

  base="$coord"
  submit fleetwarm
  jq -e '.state == "done" and .cached == .total and .simulated == 0' \
    "$work/fleetwarm.status" > /dev/null \
    || die "fleet resubmission was not fully cached: $(cat "$work/fleetwarm.status")"
  echo "smoke:     resubmission served $(jq -r .cached "$work/fleetwarm.status")/$(jq -r .total "$work/fleetwarm.status") rows from the fleet-wide cache"
fi
reap

if want 5; then
  echo "smoke: 5/6 multi-tenant admission: keys, quotas, isolation"
  # "small" can hold at most 3 unresolved jobs — the 6-job smoke spec is
  # rejected deterministically. "big" has a rotated key pair and no limits.
  cat > "$work/tenants.json" <<'EOF'
{
  "tenants": [
    {"name": "small", "key": "smoke-key-small", "max_queued": 3},
    {"name": "big", "keys": ["smoke-key-big", "smoke-key-big-rotated"]}
  ]
}
EOF
  # A fresh store so big's stream is computed, not replayed from cache.
  start_server -store "$work/tenantstore" -tenants "$work/tenants.json"

  code="$(curl -sS -o "$work/t401.json" -w '%{http_code}' \
    -H 'X-RF-API-Key: bogus' -X POST --data-binary @"$work/spec.json" "$base/v1/sweeps")"
  [ "$code" = 401 ] || die "wrong key got $code, want 401: $(cat "$work/t401.json")"
  jq -e '.code == "unauthenticated"' "$work/t401.json" > /dev/null \
    || die "401 body missing code: $(cat "$work/t401.json")"
  echo "smoke:     wrong key rejected with 401 unauthenticated"

  code="$(curl -sS -o "$work/t429.json" -D "$work/t429.headers" -w '%{http_code}' \
    -H 'X-RF-API-Key: smoke-key-small' -X POST --data-binary @"$work/spec.json" "$base/v1/sweeps")"
  [ "$code" = 429 ] || die "over-quota tenant got $code, want 429: $(cat "$work/t429.json")"
  jq -e '.code == "over_quota" and .retry_after_ms > 0' "$work/t429.json" > /dev/null \
    || die "429 body wrong: $(cat "$work/t429.json")"
  grep -qi '^retry-after:' "$work/t429.headers" \
    || die "429 response missing Retry-After header"
  echo "smoke:     over-quota tenant rejected with 429 over_quota + Retry-After"

  # The other tenant is unaffected: its sweep runs and streams the same
  # bytes rfbatch produces (the rotated key must authenticate too).
  ack="$(curl -sfS -H 'X-RF-API-Key: smoke-key-big-rotated' \
    -X POST --data-binary @"$work/spec.json" "$base/v1/sweeps")"
  echo "$ack" | jq -e '.tenant == "big"' > /dev/null \
    || die "ack not stamped with tenant: $ack"
  curl -sfS -H 'X-RF-API-Key: smoke-key-big' \
    "$base$(echo "$ack" | jq -r .results_url)" > "$work/tenant.ndjson"
  if ! cmp -s "$work/tenant.ndjson" "$work/rfbatch.ndjson"; then
    diff -u "$work/rfbatch.ndjson" "$work/tenant.ndjson" >&2 || true
    die "tenanted stream differs from rfbatch output"
  fi
  echo "smoke:     big's $(wc -l < "$work/tenant.ndjson") rows identical to rfbatch"

  # Result streams are owner-only: another tenant guessing the sequential
  # sweep ID must get a 403, never big's rows.
  code="$(curl -sS -o /dev/null -w '%{http_code}' -H 'X-RF-API-Key: smoke-key-small' \
    "$base$(echo "$ack" | jq -r .results_url)")"
  [ "$code" = 403 ] || die "cross-tenant stream got $code, want 403"
  echo "smoke:     cross-tenant result stream rejected with 403"

  # Keyless callers still work (they are the anonymous tenant).
  curl -sfS -X POST --data-binary @"$work/spec.json" "$base/v1/sweeps" \
    | jq -e '.tenant == "anonymous"' > /dev/null \
    || die "anonymous submission failed against tenanted server"

  metrics="$(curl -sfS "$base/metrics")"
  echo "$metrics" | grep -q '^rfserved_tenant_active_sweeps{tenant="big"}' \
    || die "metrics missing per-tenant rows: $(echo "$metrics" | grep tenant || true)"
  echo "$metrics" | grep -q '^rfserved_tenant_rejected_total{tenant="small"} 1$' \
    || die "small's rejection not counted: $(echo "$metrics" | grep tenant || true)"
  echo "smoke:     per-tenant metrics rows present"
fi
reap

if want 6; then
  echo "smoke: 6/6 coordinator SIGKILLed mid-sweep must resume from its WAL"
  # Serialized jobs big enough that the kill reliably lands mid-sweep,
  # small enough to keep the phase quick.
  cat > "$work/recovery-spec.json" <<'EOF'
{
  "name": "recovery",
  "instructions": 5000000,
  "parallelism": 1,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle"},
    {"kind": "rfcache", "caching": ["nonbypass", "ready"]}
  ]
}
EOF
  # The uninterrupted reference stream.
  "$bin/rfbatch" -spec "$work/recovery-spec.json" -ndjson \
    > "$work/recovery-ref.ndjson" 2>> "$work/rfbatch.log"

  waldir="$work/wal"
  recstore="$work/recstore"
  rm -f "$work/rec-addr"
  "$bin/rfserved" -dispatch -lease-ms 2000 -addr 127.0.0.1:0 \
    -addr-file "$work/rec-addr" -store "$recstore" -wal-dir "$waldir" \
    2>> "$work/rec-coordinator.log" &
  coord_pid=$!
  pids+=("$coord_pid")
  for _ in $(seq 1 100); do
    [ -s "$work/rec-addr" ] && break
    sleep 0.1
  done
  [ -s "$work/rec-addr" ] || { cat "$work/rec-coordinator.log" >&2; die "recovery coordinator never wrote its address file"; }
  coordaddr="$(cat "$work/rec-addr")"
  coord="http://$coordaddr"

  # One worker that outlives the coordinator: after the kill it keeps
  # retrying, re-registers against the restarted process, and re-adopts
  # the lease it was holding when the coordinator died.
  rm -f "$work/rec-worker-addr"
  "$bin/rfserved" -join "$coord" -worker-name recworker -addr 127.0.0.1:0 \
    -addr-file "$work/rec-worker-addr" 2>> "$work/rec-worker.log" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    n="$(curl -sfS "$coord/v1/workers" | jq '.workers | length')" || n=0
    [ "$n" = 1 ] && break
    sleep 0.1
  done
  [ "$n" = 1 ] || die "recovery worker never registered"

  ack="$(curl -sfS -X POST --data-binary @"$work/recovery-spec.json" "$coord/v1/sweeps")"
  id="$(echo "$ack" | jq -r .id)"
  results="$(echo "$ack" | jq -r .results_url)"
  [ -n "$id" ] && [ "$id" != null ] || die "recovery submission not acknowledged: $ack"

  # Kill -9 once roughly half the rows have landed.
  completed=0
  for _ in $(seq 1 2000); do
    st="$(curl -sfS "$coord/v1/sweeps/$id" || echo '{}')"
    completed="$(echo "$st" | jq -r '.completed // 0')"
    completed="${completed:-0}"
    state="$(echo "$st" | jq -r '.state // empty')"
    [ "$state" = done ] && die "sweep finished before the kill; raise the spec's instruction budget"
    [ "$completed" -ge 3 ] && break
    sleep 0.05
  done
  [ "$completed" -ge 3 ] || die "sweep never reached 3 completed rows: $st"
  kill -9 "$coord_pid"
  wait "$coord_pid" 2>/dev/null || true
  echo "smoke:     coordinator killed at $completed/6 rows"

  # Restart on the same address (the worker's coordinator URL) and the
  # same WAL dir; the journal replays and the sweep resumes.
  "$bin/rfserved" -dispatch -lease-ms 2000 -addr "$coordaddr" \
    -store "$recstore" -wal-dir "$waldir" \
    2>> "$work/rec-coordinator.log" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    curl -sfS "$coord/healthz" > /dev/null 2>&1 && break
    sleep 0.1
  done
  curl -sfS "$coord/healthz" > /dev/null || { cat "$work/rec-coordinator.log" >&2; die "restarted coordinator never came up"; }

  for _ in $(seq 1 2400); do
    state="$(curl -sfS "$coord/v1/sweeps/$id" | jq -r '.state // empty')" || state=""
    [ "$state" = done ] && break
    sleep 0.05
  done
  [ "$state" = done ] || die "resumed sweep never finished: $(curl -sfS "$coord/v1/sweeps/$id")"
  curl -sfS "$coord/v1/sweeps/$id" > "$work/recovered.status"
  jq -e '.recovered == true' "$work/recovered.status" > /dev/null \
    || die "resumed status missing the recovered marker: $(cat "$work/recovered.status")"

  curl -sfS "$coord$results" > "$work/recovered.ndjson"
  if ! cmp -s "$work/recovered.ndjson" "$work/recovery-ref.ndjson"; then
    diff -u "$work/recovery-ref.ndjson" "$work/recovered.ndjson" >&2 || true
    die "resumed stream differs from the uninterrupted reference"
  fi
  echo "smoke:     resumed stream byte-identical ($(wc -l < "$work/recovered.ndjson") rows)"

  # Zero duplicate simulation: across both coordinator lives, the worker
  # executed each of the 6 jobs exactly once (its own cache absorbs any
  # redundant re-lease, so a duplicated *simulation* is what this counts).
  worker="http://$(cat "$work/rec-worker-addr")"
  sims="$(curl -sfS "$worker/metrics" | grep '^rfserved_simulations_started_total ' | awk '{print $2}')"
  [ "$sims" = 6 ] || die "worker simulated $sims jobs across the crash, want exactly 6"
  echo "smoke:     worker simulated 6/6 jobs exactly once across the crash"

  # The resumed journal was replayed, and resubmitting the spec is 100%
  # warm cache hits (nothing was lost, nothing re-simulated).
  metrics="$(curl -sfS "$coord/metrics")"
  echo "$metrics" | grep -q '^rfserved_wal_replayed_records{journal="server"} [1-9]' \
    || die "restarted coordinator reports no replayed journal records"
  base="$coord"
  cp "$work/recovery-spec.json" "$work/spec.json"
  submit recwarm
  jq -e '.state == "done" and .cached == .total and .simulated == 0' \
    "$work/recwarm.status" > /dev/null \
    || die "post-recovery resubmission was not fully cached: $(cat "$work/recwarm.status")"
  echo "smoke:     post-recovery resubmission fully cached"
fi
reap

if want 7; then
  echo "smoke: 7/7 sharded fleet store: peer-tier reads + hedged dead-peer fallback"
  # Phase 6 repoints spec.json at the recovery spec; phase 7 is
  # self-contained, so restore the 6-job smoke spec first.
  cat > "$work/spec.json" <<'EOF'
{
  "name": "smoke",
  "instructions": 5000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle"},
    {"kind": "rfcache", "caching": ["nonbypass", "ready"]}
  ]
}
EOF

  # Coordinator C1 has NO local store: results live only in the workers'
  # stores, so every later cache hit must travel the peer tier.
  rm -f "$work/p7-coord-addr"
  "$bin/rfserved" -dispatch -lease-ms 3000 -store-shards 16 \
    -addr 127.0.0.1:0 -addr-file "$work/p7-coord-addr" \
    2>> "$work/p7-coordinator.log" &
  p7_coord_pid=$!
  pids+=("$p7_coord_pid")
  for _ in $(seq 1 100); do
    [ -s "$work/p7-coord-addr" ] && break
    sleep 0.1
  done
  [ -s "$work/p7-coord-addr" ] || { cat "$work/p7-coordinator.log" >&2; die "phase-7 coordinator never wrote its address file"; }
  coordaddr="$(cat "$work/p7-coord-addr")"
  coord="http://$coordaddr"

  p7_worker_pids=()
  for i in 1 2; do
    rm -f "$work/p7-worker$i-addr"
    "$bin/rfserved" -join "$coord" -worker-name "peerworker$i" \
      -store "$work/p7-store$i" -addr 127.0.0.1:0 \
      -addr-file "$work/p7-worker$i-addr" 2>> "$work/p7-worker$i.log" &
    p7_worker_pids+=("$!")
    pids+=("$!")
  done
  for _ in $(seq 1 100); do
    n="$(curl -sfS "$coord/v1/workers" | jq '.workers | length')" || n=0
    [ "$n" = 2 ] && break
    sleep 0.1
  done
  [ "$n" = 2 ] || die "expected 2 registered phase-7 workers, got $n"

  echo "smoke:     cold sweep through the storeless coordinator"
  "$bin/rfbatch" -spec "$work/spec.json" -remote "$coord" -ndjson \
    > "$work/p7-cold.ndjson" 2>> "$work/p7-rfbatch.log" \
    || { cat "$work/p7-rfbatch.log" >&2; die "phase-7 rfbatch -remote failed"; }
  if ! cmp -s "$work/p7-cold.ndjson" "$work/rfbatch.ndjson"; then
    diff -u "$work/rfbatch.ndjson" "$work/p7-cold.ndjson" >&2 || true
    die "phase-7 cold fleet stream differs from single-node rfbatch output"
  fi
  metrics="$(curl -sfS "$coord/metrics")"
  echo "$metrics" | grep -q '^rfserved_dispatch_results_total 6$' \
    || die "phase-7 fleet did not execute all 6 jobs remotely"

  # Kill the coordinator (only it — the workers keep their stores) and
  # start a fresh one on the same address. Its memory cache and (absent)
  # local store know nothing: the resubmitted sweep can only be served
  # by reading the workers' stores through the peer tier.
  kill "$p7_coord_pid"
  wait "$p7_coord_pid" 2>/dev/null || true
  "$bin/rfserved" -dispatch -lease-ms 3000 -store-shards 16 -addr "$coordaddr" \
    2>> "$work/p7-coordinator.log" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    curl -sfS "$coord/healthz" > /dev/null 2>&1 && break
    sleep 0.1
  done
  curl -sfS "$coord/healthz" > /dev/null || { cat "$work/p7-coordinator.log" >&2; die "phase-7 restarted coordinator never came up"; }

  # Wait until every worker that actually holds objects has re-registered
  # and advertised its shard inventory to the new coordinator (a worker
  # the scheduler happened to starve has nothing to advertise).
  ready=0
  for _ in $(seq 1 300); do
    ready=1
    wjson="$(curl -sfS "$coord/v1/workers" 2>/dev/null)" || wjson=""
    [ -n "$wjson" ] || { ready=0; sleep 0.1; continue; }
    [ "$(echo "$wjson" | jq '.workers | length')" = 2 ] || { ready=0; sleep 0.1; continue; }
    for i in 1 2; do
      waddr="http://$(cat "$work/p7-worker$i-addr")"
      objs="$(curl -sfS "$waddr/metrics" 2>/dev/null | grep '^rfserved_store_objects ' | awk '{print $2}')" || objs=0
      if [ "${objs:-0}" -gt 0 ]; then
        adv="$(echo "$wjson" | jq -r --arg n "peerworker$i" \
          '[.workers[] | select(.name == $n)][0].store_shards // 0')"
        [ "${adv:-0}" -ge 1 ] || ready=0
      fi
    done
    [ "$ready" = 1 ] && break
    sleep 0.1
  done
  [ "$ready" = 1 ] || die "workers never advertised their store inventory to the new coordinator"
  echo "smoke:     fresh coordinator sees the fleet inventory"

  base="$coord"
  submit p7-peer
  jq -e '.state == "done" and .cached == .total and .simulated == 0' \
    "$work/p7-peer.status" > /dev/null \
    || die "peer-tier resubmission was not fully cached: $(cat "$work/p7-peer.status")"
  if ! cmp -s <(jq -c 'del(.cached)' "$work/p7-cold.ndjson") \
              <(jq -c 'del(.cached)' "$work/p7-peer.ndjson"); then
    die "peer-tier rows differ from the cold run"
  fi
  metrics="$(curl -sfS "$coord/metrics")"
  echo "$metrics" | grep -q '^rfserved_store_tier_hits{tier="peer"} 6$' \
    || die "coordinator did not serve all 6 rows from the peer tier: $(echo "$metrics" | grep store_tier || true)"
  echo "smoke:     resubmission served 6/6 rows from worker stores (0 simulations)"

  # Dead-peer fallback: a brand-new node lists the soon-to-die worker 2
  # FIRST in its remote tiers, then worker 1. Reads hit the dead URL,
  # fail over, and the sweep still completes byte-identically.
  w1addr="$(cat "$work/p7-worker1-addr")"
  w2addr="$(cat "$work/p7-worker2-addr")"
  kill "${p7_worker_pids[1]}"
  wait "${p7_worker_pids[1]}" 2>/dev/null || true
  echo "smoke:     worker 2 killed; new node must hedge around http://$w2addr"
  start_server -store "$work/p7-nodeb-store" \
    -store-remote "http://$w2addr,http://$w1addr"
  submit p7-hedged
  jq -e '.state == "done" and (.cached + .simulated) == .total' \
    "$work/p7-hedged.status" > /dev/null \
    || die "hedged-fallback sweep did not complete: $(cat "$work/p7-hedged.status")"
  if ! cmp -s <(jq -c 'del(.cached)' "$work/p7-cold.ndjson") \
              <(jq -c 'del(.cached)' "$work/p7-hedged.ndjson"); then
    die "hedged-fallback rows differ from the cold run"
  fi
  errors="$(curl -sfS "$base/metrics" | grep '^rfserved_store_remote_errors ' | awk '{print $2}')"
  [ "${errors:-0}" -ge 1 ] || die "dead remote tier produced no counted errors"
  echo "smoke:     sweep completed around the dead peer ($(jq -r .cached "$work/p7-hedged.status") remote hits, $(jq -r .simulated "$work/p7-hedged.status") resimulated, $errors tier errors)"
fi
reap

if want 8; then
  echo "smoke: 8/8 warehouse: server-side queries match local aggregation, survive dir loss"
  # Self-contained: earlier phases may have repointed spec.json.
  cat > "$work/spec.json" <<'EOF'
{
  "name": "smoke",
  "instructions": 5000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle"},
    {"kind": "rfcache", "caching": ["nonbypass", "ready"]}
  ]
}
EOF

  whdir="$work/warehouse"
  p8waldir="$work/p8-wal"
  p8store="$work/p8-store"
  rm -f "$work/p8-coord-addr"
  "$bin/rfserved" -dispatch -lease-ms 3000 -addr 127.0.0.1:0 \
    -addr-file "$work/p8-coord-addr" -store "$p8store" -wal-dir "$p8waldir" \
    -warehouse-dir "$whdir" 2>> "$work/p8-coordinator.log" &
  p8_coord_pid=$!
  pids+=("$p8_coord_pid")
  for _ in $(seq 1 100); do
    [ -s "$work/p8-coord-addr" ] && break
    sleep 0.1
  done
  [ -s "$work/p8-coord-addr" ] || { cat "$work/p8-coordinator.log" >&2; die "phase-8 coordinator never wrote its address file"; }
  coordaddr="$(cat "$work/p8-coord-addr")"
  coord="http://$coordaddr"

  "$bin/rfserved" -join "$coord" -worker-name whworker -addr 127.0.0.1:0 \
    2>> "$work/p8-worker.log" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    n="$(curl -sfS "$coord/v1/workers" | jq '.workers | length')" || n=0
    [ "$n" = 1 ] && break
    sleep 0.1
  done
  [ "$n" = 1 ] || die "phase-8 worker never registered"

  # Run the sweep through the fleet and keep the streamed rows: they are
  # the client-side ground truth the query answers are checked against.
  ack="$(curl -sfS -X POST --data-binary @"$work/spec.json" "$coord/v1/sweeps")"
  id="$(echo "$ack" | jq -r .id)"
  results="$(echo "$ack" | jq -r .results_url)"
  [ -n "$id" ] && [ "$id" != null ] || die "phase-8 submission not acknowledged: $ack"
  curl -sfS "$coord$results" > "$work/p8-rows.ndjson"
  cmp -s "$work/p8-rows.ndjson" "$work/rfbatch.ndjson" \
    || die "phase-8 fleet stream differs from rfbatch output"

  cat > "$work/q-series.json" <<'EOF'
{"schema": 1, "op": "series"}
EOF
  cat > "$work/q-agg.json" <<'EOF'
{"schema": 1, "op": "aggregate", "group_by": ["family", "suite"],
 "metrics": [{"op": "mean", "metric": "ipc"}, {"op": "max", "metric": "cycles"}]}
EOF
  cat > "$work/q-rows.json" <<'EOF'
{"schema": 1, "op": "rows", "limit": 2}
EOF

  # The acceptance contract: for every op, the coordinator's answer is
  # byte-identical to re-aggregating the streamed rows locally — zero
  # rows travel for the server-side answer (q-rows paginates at limit 2,
  # so the cursor walk is covered too).
  for q in series agg rows; do
    "$bin/rfbatch" -query "$work/q-$q.json" -remote "$coord" -sweep "$id" \
      > "$work/p8-$q-remote.json" 2>> "$work/p8-rfbatch.log" \
      || { cat "$work/p8-rfbatch.log" >&2; die "remote $q query failed"; }
    "$bin/rfbatch" -query "$work/q-$q.json" -from "$work/p8-rows.ndjson" \
      -spec "$work/spec.json" -sweep "$id" \
      > "$work/p8-$q-local.json" 2>> "$work/p8-rfbatch.log" \
      || { cat "$work/p8-rfbatch.log" >&2; die "local $q query failed"; }
    if ! cmp -s "$work/p8-$q-remote.json" "$work/p8-$q-local.json"; then
      diff -u "$work/p8-$q-local.json" "$work/p8-$q-remote.json" >&2 || true
      die "$q query: server-side answer differs from local aggregation"
    fi
  done
  echo "smoke:     series/aggregate/rows answers byte-identical to local aggregation"

  # The figure render: -table turns the series answer into the Figure 6
  # benchmark x architecture IPC grid, identically on both paths.
  "$bin/rfbatch" -query "$work/q-series.json" -remote "$coord" -sweep "$id" -table \
    > "$work/p8-fig6-remote.txt" 2>> "$work/p8-rfbatch.log"
  "$bin/rfbatch" -query "$work/q-series.json" -from "$work/p8-rows.ndjson" \
    -spec "$work/spec.json" -sweep "$id" -table \
    > "$work/p8-fig6-local.txt" 2>> "$work/p8-rfbatch.log"
  cmp -s "$work/p8-fig6-remote.txt" "$work/p8-fig6-local.txt" \
    || die "Figure 6 table differs between coordinator and local render"
  grep -q 'compress' "$work/p8-fig6-remote.txt" && grep -q 'swim' "$work/p8-fig6-remote.txt" \
    || die "Figure 6 table missing benchmark rows: $(cat "$work/p8-fig6-remote.txt")"
  echo "smoke:     Figure 6 table renders identically from the coordinator"

  # GET with the document url-encoded in ?q= is the same evaluator.
  curl -sfS -G --data-urlencode "q@$work/q-series.json" "$coord/v1/query" \
    > "$work/p8-get.json"
  curl -sfS -X POST --data-binary @"$work/q-series.json" "$coord/v1/query" \
    > "$work/p8-post.json"
  cmp -s "$work/p8-get.json" "$work/p8-post.json" \
    || die "GET and POST /v1/query answers differ"

  metrics="$(curl -sfS "$coord/metrics")"
  echo "$metrics" | grep -q '^rfserved_warehouse_segments 1$' \
    || die "warehouse metrics missing segment count: $(echo "$metrics" | grep warehouse || true)"
  echo "$metrics" | grep -q '^rfserved_warehouse_queries_total [1-9]' \
    || die "warehouse query counter never moved: $(echo "$metrics" | grep warehouse || true)"
  # The warehouse's segment log is a journal on /metrics beside the
  # server's; a coordinator keeps no journal of its own.
  echo "$metrics" | grep -q '^rfserved_wal_appends_total{journal="warehouse"} [1-9]' \
    || die "warehouse log appends missing from /metrics: $(echo "$metrics" | grep '^rfserved_wal_appends' || true)"
  if echo "$metrics" | grep -q 'journal="coordinator"' || [ -e "$p8waldir/coordinator" ]; then
    die "coordinator opened a journal of its own under $p8waldir"
  fi

  # Lose the warehouse directory entirely; the restarted coordinator
  # rebuilds the segment from the content-addressed store and answers
  # every query byte-identically, without one simulation.
  kill "$p8_coord_pid"
  wait "$p8_coord_pid" 2>/dev/null || true
  rm -rf "$whdir"
  "$bin/rfserved" -dispatch -lease-ms 3000 -addr "$coordaddr" \
    -store "$p8store" -wal-dir "$p8waldir" -warehouse-dir "$whdir" \
    2>> "$work/p8-coordinator.log" &
  pids+=("$!")
  for _ in $(seq 1 100); do
    curl -sfS "$coord/healthz" > /dev/null 2>&1 && break
    sleep 0.1
  done
  curl -sfS "$coord/healthz" > /dev/null || { cat "$work/p8-coordinator.log" >&2; die "phase-8 restarted coordinator never came up"; }
  for _ in $(seq 1 100); do
    segs="$(curl -sfS "$coord/metrics" | grep '^rfserved_warehouse_segments ' | awk '{print $2}')" || segs=0
    [ "${segs:-0}" = 1 ] && break
    sleep 0.1
  done
  [ "${segs:-0}" = 1 ] || die "restarted coordinator never rebuilt the warehouse segment"

  for q in series agg rows; do
    "$bin/rfbatch" -query "$work/q-$q.json" -remote "$coord" -sweep "$id" \
      > "$work/p8-$q-rebuilt.json" 2>> "$work/p8-rfbatch.log" \
      || { cat "$work/p8-rfbatch.log" >&2; die "post-rebuild $q query failed"; }
    cmp -s "$work/p8-$q-rebuilt.json" "$work/p8-$q-remote.json" \
      || die "$q query differs after warehouse rebuild"
  done
  sims="$(curl -sfS "$coord/metrics" | grep '^rfserved_simulations_started_total ' | awk '{print $2}')"
  [ "${sims:-0}" = 0 ] || die "warehouse rebuild triggered $sims local simulations"
  echo "smoke:     warehouse rebuilt from the store; all answers byte-identical, 0 simulations"
fi
reap

echo "smoke: PASS"
