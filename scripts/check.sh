#!/bin/bash
# Observability / concurrency / robustness gate:
#   1. builds the tree with ThreadSanitizer (-DDOT_SANITIZE=thread) — the
#      sharded counters, trace recorder and service cache are all hit from
#      multiple threads in the tier-1 suite, so data races surface here;
#   2. runs the fast (tier1) ctest suite under that build;
#   3. re-runs obs_test with DOT_METRICS_TEXT set and lints the Prometheus
#      text export: every line must be a comment (# HELP / # TYPE) or a
#      `name{labels} value` sample with a legal metric name and a finite
#      or +Inf number; the fault-tolerance counters (serving degradation,
#      retries, training rollbacks) must be present in the dump;
#   4. builds again with ASan+UBSan (-DDOT_SANITIZE=address,undefined) and
#      runs the robustness suite — the failpoint-driven failure paths (torn
#      writes, NaN losses, degraded serving) run under both sanitizers so
#      the error paths themselves are memory/UB clean (tier1 runs under
#      this build in the stage 6 matrix);
#   5. smoke-tests DOT_FAILPOINTS environment arming end to end;
#   6. the ASan+UBSan tier1 config matrix, one leg per GEMM kernel: tier1
#      + the differential GEMM harness under DOT_GEMM_KERNEL=naive,
#      blocked, and simd (simd degrades to blocked gracefully on CPUs
#      without AVX2+FMA, and the simd-only differential cases GTEST_SKIP
#      themselves; unset resolves exactly as simd does, so the simd leg is
#      the plain run). Every leg fills each fresh heap buffer with 0xff
#      bytes, a NaN as a float, so an op that reads an output element it
#      never wrote surfaces as NaN in the numeric assertions;
#   7. serving front-end gate: the wire-protocol fuzzing and fake-clock
#      batcher suites under ASan+UBSan, the multi-client socket stress
#      under TSan, and a loopback e2e smoke (dot_server binary + the
#      load-gen client, SIGTERM, graceful-drain check);
#   8. observability plane gate: the rolling-window / slow-ring / gauge
#      suites under TSan (lock-free record paths are cross-thread), then a
#      live admin-plane smoke against the dot_server binary — /healthz,
#      /metrics (same lint as stage 3, plus the inflight gauge and windowed
#      percentiles), /varz, /slowz, /tracez, a SIGUSR1 stderr stats dump,
#      and the /readyz ready->draining flip during the SIGTERM lame-duck;
#   9. sharded-oracle chaos gate: the chaos harness (crash/NaN/delay
#      injection into shards, quarantine + probe recovery, mid-load hot
#      swaps) under TSan, then a loopback shard-kill smoke — dot_server
#      with 3 shards and a failpoint-killed shard must quarantine it,
#      keep answering, recover it after the fault clears, hot-swap every
#      shard via POST /swapz, export well-formed per-shard labeled
#      metrics, and drain with lost=0;
#  10. continual adaptation gate (DESIGN.md §5k): the trainer-parity and
#      adaptation suites (fine-tune guards, the fine-tune round) under
#      ASan+UBSan, the fine-tune -> re-seal -> hot-swap chaos case under
#      TSan (the fleet serves while the round publishes), then a live
#      dot_server smoke: POST /adaptz fine-tunes on the incident window
#      and must publish a version bump to every shard, /metrics must carry
#      the labeled dot_train_*{stage=stage1|stage2|finetune} series and
#      still pass the Prometheus lint, SIGHUP must hot-swap once more,
#      and the SIGTERM drain must report lost=0.
# Every live smoke (stages 7-10) ends in the same drain check: a zero exit
# after SIGTERM and a "DRAINED ... lost=0" line.
# Usage: scripts/check.sh [build_dir] [asan_build_dir]
#   (defaults: build-tsan build-asan)
set -u
cd "$(dirname "$0")/.."
BUILD=${1:-build-tsan}
BUILD_ASAN=${2:-build-asan}
FAILED=0
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

fail() {
  echo "CHECK FAILED: $*"
  FAILED=1
}

# check LABEL CMD...: runs CMD with its stdout discarded; a nonzero exit
# fails LABEL.
check() {
  local label=$1
  shift
  "$@" > /dev/null || fail "$label"
}

# lint_metrics LABEL FILE [SERIES...]: FILE must be non-empty Prometheus
# text whose every line is a '#' comment or a metric name in
# [a-zA-Z_:][a-zA-Z0-9_:]* with an optional {label="..."} set, one space,
# and one numeric value (scientific notation, +Inf and NaN allowed); each
# SERIES regex must start some sample line.
lint_metrics() {
  local label=$1 file=$2 bad series
  shift 2
  [ -s "$file" ] || fail "$label is empty"
  bad=$(grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN))$' \
    "$file")
  if [ -n "$bad" ]; then
    fail "malformed $label lines:"
    echo "$bad"
  fi
  for series in "$@"; do
    grep -qE "^${series} " "$file" || fail "$label is missing ${series}"
  done
}

# start_server LABEL ADMIN [ARG...]: boots the ASan+UBSan dot_server in a
# fresh SRV_DIR (plus the admin plane on an ephemeral port when ADMIN is 1)
# and waits for its port files. Each VAR=value ARG goes into the server's
# environment, every other ARG onto its command line (dot_server flags).
# Sets SRV_PID, SRV_LOG, PORT and APORT; fails LABEL and returns 1 when the
# server does not come up.
start_server() {
  local label=$1 admin=$2 f up arg
  shift 2
  SRV_DIR=$(mktemp -d "$SCRATCH/server.XXXX")
  SRV_LOG="$SRV_DIR/server.log"
  local env_args=() flags=() admin_args=() port_files=("$SRV_DIR/port")
  for arg in "$@"; do
    if [[ $arg =~ ^[A-Z_][A-Z0-9_]*= ]]; then
      env_args+=("$arg")
    else
      flags+=("$arg")
    fi
  done
  if [ "$admin" = 1 ]; then
    admin_args=(--admin-port 0 --admin-port-file "$SRV_DIR/admin_port")
    port_files+=("$SRV_DIR/admin_port")
  fi
  env "${env_args[@]}" "$BUILD_ASAN"/src/serve/dot_server \
    --port-file "$SRV_DIR/port" "${admin_args[@]}" "${flags[@]}" \
    --checkpoint "$SRV_DIR/oracle.bin" > "$SRV_LOG" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 600); do
    up=1
    for f in "${port_files[@]}"; do [ -s "$f" ] || up=0; done
    [ "$up" = 1 ] && break
    kill -0 "$SRV_PID" 2> /dev/null || break
    sleep 0.5
  done
  if [ "$up" != 1 ]; then
    fail "dot_server ($label) did not come up"
    cat "$SRV_LOG"
    return 1
  fi
  PORT=$(cat "$SRV_DIR/port")
  [ "$admin" != 1 ] || APORT=$(cat "$SRV_DIR/admin_port")
}

# stop_server LABEL [signalled]: sends SIGTERM (unless the caller already
# has), then requires a zero exit and a lossless graceful drain.
stop_server() {
  [ "${2:-}" = signalled ] || kill -TERM "$SRV_PID"
  wait "$SRV_PID" || fail "dot_server ($1) exited nonzero after SIGTERM"
  if ! grep -qE '^DRAINED .*lost=0' "$SRV_LOG"; then
    fail "dot_server ($1) did not drain losslessly"
    cat "$SRV_LOG"
  fi
}

# smoke_client LABEL QUERIES: the load-gen client's smoke mode against PORT.
smoke_client() {
  check "$1" "$BUILD_ASAN"/bench/bench_serving_load --client-smoke \
    --port "$PORT" --queries "$2"
}

echo "== configure + build ($BUILD, -DDOT_SANITIZE=thread) =="
cmake -B "$BUILD" -S . -DDOT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  || exit 1
cmake --build "$BUILD" -j "$(nproc)" || exit 1

echo "== tier1 tests under tsan =="
if ! ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j "$(nproc)"; then
  fail "tier1 tests"
fi

echo "== metrics text export lint =="
METRICS_TXT="$SCRATCH/metrics.txt"
check "obs_test export run" env DOT_METRICS_TEXT="$METRICS_TXT" \
  "$BUILD"/tests/obs_test \
  --gtest_filter='MetricsRegistryTest.PrometheusExportIsWellFormed'
# The fault-tolerance counters must make it through the registry and into the
# export: one labeled series per degradation level plus the retry and
# training-rollback totals.
lint_metrics "metrics text export" "$METRICS_TXT" \
  'dot_serving_degraded_total\{level="[a-z_]+"\}' dot_serving_retries_total \
  'dot_train_rollbacks_total\{stage="[a-z0-9]+"\}'

echo "== configure + build ($BUILD_ASAN, -DDOT_SANITIZE=address,undefined) =="
cmake -B "$BUILD_ASAN" -S . -DDOT_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo || exit 1
cmake --build "$BUILD_ASAN" -j "$(nproc)" || exit 1

echo "== robustness suite under asan+ubsan =="
check "robustness_test (asan+ubsan)" "$BUILD_ASAN"/tests/robustness_test

echo "== DOT_FAILPOINTS env arming smoke =="
# Arms a named failpoint purely through the environment; the EnvArmingSmoke
# test asserts the spec was parsed and the point fires (it skips itself when
# the variable is absent, so plain test runs are unaffected).
check "failpoint env smoke run" env DOT_FAILPOINTS="check.smoke=error" \
  "$BUILD_ASAN"/tests/util_test --gtest_filter='FailpointTest.*'

echo "== tier1 config matrix under asan+ubsan: GEMM kernels, NaN fill =="
# Each tensor buffer is its own heap allocation, so ASan sees its true
# lifetime. malloc_fill_byte=255 over the whole allocation makes every
# fresh buffer read as NaN until written (ASan's default fills only the
# first 4 KB, with 0xbe), so a kernel that skips an output element fails
# the numeric assertions. A failing leg prints its ctest output.
NAN_FILL=malloc_fill_byte=255:max_malloc_fill_size=2147483647
LEG_LOG="$SCRATCH/leg.log"
for KERNEL in naive blocked simd; do
  LEG="DOT_GEMM_KERNEL=$KERNEL ASAN_OPTIONS=$NAN_FILL"
  echo "-- $LEG --"
  # $LEG stays unquoted: it is a list of VAR=value words for env.
  if env $LEG ctest --test-dir "$BUILD_ASAN" -L tier1 --output-on-failure \
      -j "$(nproc)" > "$LEG_LOG" 2>&1; then
    grep 'tests passed' "$LEG_LOG"
  else
    cat "$LEG_LOG"
    fail "tier1 tests ($LEG)"
  fi
  check "gemm_differential_test ($LEG)" \
    env $LEG "$BUILD_ASAN/tests/gemm_differential_test"
done

echo "== serving front-end: protocol + batching under asan+ubsan =="
# The wire-protocol fuzzing (truncated headers, oversized lengths, garbage
# payloads, torn writes) and the fake-clock batcher policy suite must be
# memory/UB clean — a hostile byte stream exercising UB is exactly what
# these sanitizers exist to catch.
check "serve_protocol_test (asan+ubsan)" "$BUILD_ASAN"/tests/serve_protocol_test
check "serve_batching_test (asan+ubsan)" "$BUILD_ASAN"/tests/serve_batching_test

echo "== serving front-end: concurrency stress under tsan =="
# N client threads vs the poll-loop + batcher thread on a loopback server:
# the connection table, outboxes, and stats are all cross-thread state.
check "serve_stress_test (tsan)" "$BUILD"/tests/serve_stress_test

echo "== serving front-end: loopback e2e smoke =="
# Full binary-to-binary path: start dot_server (trains the demo oracle),
# query it over TCP with the load-gen client, then SIGTERM and require a
# graceful drain and a zero exit.
if start_server loopback 0; then
  smoke_client "serving loopback smoke client" 25
  stop_server loopback
fi

echo "== observability plane: window/ring/gauge suites under tsan =="
# The rolling-window slot rotation, slow-query ring push, and gauge CAS-add
# are all designed to be called from request threads while an admin thread
# snapshots them — exactly the interleaving TSan checks.
check "obs window/ring/gauge suites (tsan)" "$BUILD"/tests/obs_test \
  --gtest_filter='RollingWindowTest.*:SlowQueryRingTest.*:GaugeAddTest.*'
check "serve_admin_test (tsan)" "$BUILD"/tests/serve_admin_test

echo "== observability plane: live admin endpoint smoke =="
# Boots dot_server with the admin plane on an ephemeral port and walks every
# endpoint over real HTTP, then checks the SIGUSR1 stats dump and that
# /readyz flips to draining during the SIGTERM lame-duck window.
if start_server admin 1 --lame-duck-ms 3000; then
  # Send a little traffic so the metrics/windows are non-trivial.
  smoke_client "admin smoke traffic" 10
  ADMIN="http://127.0.0.1:$APORT"
  [ "$(curl -s "$ADMIN/healthz")" = "ok" ] || fail "/healthz"
  [ "$(curl -s -o /dev/null -w '%{http_code}' "$ADMIN/readyz")" = "200" ] \
    || fail "/readyz not ready while serving"
  curl -s "$ADMIN/metrics" > "$SRV_DIR/metrics.txt"
  lint_metrics /metrics "$SRV_DIR/metrics.txt" \
    dot_server_inflight dot_server_request_latency_us_window_p95
  curl -s "$ADMIN/varz" | grep -q '"windows"' || fail "/varz has no windows section"
  curl -s "$ADMIN/slowz" | grep -q '"records"' || fail "/slowz"
  curl -s "$ADMIN/tracez?sec=0.2" | grep -q '"traceEvents"' || fail "/tracez"
  kill -USR1 "$SRV_PID"
  sleep 1
  grep -q 'SIGUSR1 varz dump' "$SRV_LOG" \
    || fail "SIGUSR1 stats dump missing from server log"
  kill -TERM "$SRV_PID"
  sleep 0.5  # inside the 3s lame-duck window: still serving, but draining
  DRAIN_CODE=$(curl -s -o "$SRV_DIR/readyz_drain" -w '%{http_code}' \
    "$ADMIN/readyz")
  if [ "$DRAIN_CODE" != "503" ] || ! grep -q draining "$SRV_DIR/readyz_drain"; then
    fail "/readyz did not flip to draining during lame-duck"
  fi
  stop_server admin signalled
fi

echo "== sharded oracle: chaos harness under tsan =="
# Shard dispatch, health transitions, probes, and hot swaps all race
# against concurrent load threads in this suite — TSan checks the shard /
# router locking for real.
check "chaos_test (tsan)" "$BUILD"/tests/chaos_test

echo "== sharded oracle: loopback shard-kill smoke =="
# 3-shard dot_server with shard 1's dispatch failpoint armed for 5 hits:
# 3 consecutive failures quarantine the shard, 2 more eat failed probes,
# then the exhausted failpoint lets a probe succeed and the shard must
# come back — all observed live through /shardz while the smoke client
# keeps querying (no request may be lost: DRAINED must report lost=0).
if start_server sharded 1 --shards 3 \
    DOT_FAILPOINTS="serve.shard_dispatch.1=error:5"; then
  ADMIN="http://127.0.0.1:$APORT"
  grep -q '^SHARDS 3$' "$SRV_LOG" || fail "dot_server did not report 3 shards"
  # Round 1: enough traffic that shard 1 takes 3 consecutive failures.
  # Every query must still be answered (the ladder serves for the shard).
  smoke_client "smoke traffic failed during shard kill" 30
  if ! curl -s "$ADMIN/shardz" | grep -q '"quarantined"'; then
    fail "killed shard was not quarantined"
    curl -s "$ADMIN/shardz"
  fi
  # Keep traffic flowing across the probe backoff windows (200/400/800 ms)
  # until the exhausted failpoint lets a probe through and /shardz shows
  # every shard healthy again.
  RECOVERED=0
  for _ in $(seq 1 30); do
    sleep 0.3
    "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$PORT" \
      --queries 10 > /dev/null 2>&1
    if ! curl -s "$ADMIN/shardz" | grep -q '"quarantined"'; then
      RECOVERED=1
      break
    fi
  done
  if [ "$RECOVERED" -ne 1 ]; then
    fail "killed shard did not recover after failpoint drained"
    curl -s "$ADMIN/shardz"
  fi
  # Zero-downtime hot swap via the admin plane: POST flips every shard to
  # model_version 2 (GET must be rejected — it is the mutating endpoint).
  [ "$(curl -s -o /dev/null -w '%{http_code}' "$ADMIN/swapz")" = "405" ] \
    || fail "GET /swapz was not rejected"
  curl -s -X POST "$ADMIN/swapz" | grep -q 'swap ok' || fail "POST /swapz"
  if curl -s "$ADMIN/shardz" | grep -q '"model_version": 1'; then
    fail "a shard still serves model_version 1 after /swapz"
    curl -s "$ADMIN/shardz"
  fi
  # Per-shard labeled series must export well-formed (the stage-3 lint
  # only sees unsharded processes; this is the labeled-metric variant).
  curl -s "$ADMIN/metrics" > "$SRV_DIR/metrics.txt"
  lint_metrics "sharded /metrics" "$SRV_DIR/metrics.txt" \
    'dot_shard_cache_hits_total\{shard="0"\}' \
    'dot_shard_quality_total\{shard="1",level="fallback"\}' \
    'dot_shard_quarantines_total\{shard="1"\}' \
    'dot_shard_health\{shard="2"\}' \
    'dot_shard_model_version\{shard="0"\}'
  stop_server sharded
fi

echo "== continual adaptation: trainer parity + adaptation suites under asan+ubsan =="
# The extracted training loop must stay bitwise-parity with the historical
# stage loops, and the fine-tune guards must be memory/UB clean.
check "trainer_test (asan+ubsan)" "$BUILD_ASAN"/tests/trainer_test
check "adaptation_test (asan+ubsan)" "$BUILD_ASAN"/tests/adaptation_test

echo "== continual adaptation: fine-tune -> hot-swap chaos under tsan =="
# One adaptation round fine-tunes, re-seals, and swaps a 2-shard fleet
# while a load thread keeps querying it — the shard RW locks, the swap
# path, and the manager's history mutex all race for real here.
check "adaptation_test chaos case (tsan)" "$BUILD"/tests/adaptation_test \
  --gtest_filter='AdaptationFixture.FineTuneHotSwapChaosUnderLoad'

echo "== continual adaptation: live /adaptz fine-tune + SIGHUP swap smoke =="
# Boots dot_server, runs one continual fine-tune round over the admin
# plane (fresh incident trajectories, replay mix, canary gate, hot-swap
# publish), then SIGHUPs for one more swap and requires a lossless drain.
if start_server adapt 1 --shards 2; then
  ADMIN="http://127.0.0.1:$APORT"
  # Traffic before the round so the swap happens under a warmed fleet.
  smoke_client "adapt smoke traffic" 10
  curl -s "$ADMIN/adaptz" | grep -q '"rounds": 0' \
    || fail "GET /adaptz before any round"
  # The round simulates fresh incident trips and fine-tunes synchronously;
  # give it a generous sanitizer-friendly timeout.
  ROUND="$SRV_DIR/round.json"
  curl -s -m 1800 -X POST "$ADMIN/adaptz" -o "$ROUND" || fail "POST /adaptz"
  if ! grep -q '"published": true' "$ROUND"; then
    fail "adaptation round did not publish:"
    cat "$ROUND"
  fi
  if curl -s "$ADMIN/shardz" | grep -q '"model_version": 1'; then
    fail "a shard still serves model_version 1 after /adaptz"
    curl -s "$ADMIN/shardz"
  fi
  # The adapted model keeps serving.
  smoke_client "post-adapt traffic" 10
  # Labeled per-stage training series (base training + the fine-tune that
  # just ran in-process) must export well-formed.
  curl -s "$ADMIN/metrics" > "$SRV_DIR/metrics.txt"
  lint_metrics "adapt /metrics" "$SRV_DIR/metrics.txt" \
    'dot_train_epochs_total\{stage="stage1"\}' \
    'dot_train_epochs_total\{stage="stage2"\}' \
    'dot_train_epochs_total\{stage="finetune"\}' \
    'dot_train_rollbacks_total\{stage="finetune"\}' \
    'dot_train_epoch_loss\{stage="finetune"\}'
  # SIGHUP: one more zero-downtime swap of the freshly sealed checkpoint.
  kill -HUP "$SRV_PID"
  SWAPPED=0
  for _ in $(seq 1 60); do
    sleep 0.5
    if grep -q 'SIGHUP swap ok' "$SRV_LOG"; then
      SWAPPED=1
      break
    fi
  done
  if [ "$SWAPPED" -ne 1 ]; then
    fail "SIGHUP swap after /adaptz"
    cat "$SRV_LOG"
  fi
  stop_server adapt
fi

if [ "$FAILED" -ne 0 ]; then
  echo "CHECK FAILED"
  exit 1
fi
echo "CHECK OK"
