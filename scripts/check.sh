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
#      runs tier1 plus the robustness suite — the failpoint-driven failure
#      paths (torn writes, NaN losses, degraded serving) run under both
#      sanitizers so the error paths themselves are memory/UB clean;
#   5. smoke-tests DOT_FAILPOINTS environment arming end to end;
#   6. kernel test matrix: re-runs tier1 + the differential GEMM harness
#      under DOT_GEMM_KERNEL=naive, blocked, and simd on the ASan+UBSan
#      build (simd degrades to blocked gracefully on CPUs without AVX2+FMA,
#      and the simd-only differential cases GTEST_SKIP themselves);
#   7. storage-pool matrix on the ASan+UBSan build: tier1 + the alias/pool
#      suite with the pool ON and poison-on-return active (reads of
#      recycled-but-unwritten buffers surface as NaNs), then once with
#      DOT_TENSOR_POOL=off so every recycling path also runs as plain
#      heap alloc/free under ASan;
#   8. serving front-end gate: the wire-protocol fuzzing and fake-clock
#      batcher suites under ASan+UBSan, the multi-client socket stress
#      under TSan, and a loopback e2e smoke (dot_server binary + the
#      load-gen client, SIGTERM, graceful-drain check);
#   9. observability plane gate: the rolling-window / slow-ring / gauge
#      suites under TSan (lock-free record paths are cross-thread), then a
#      live admin-plane smoke against the dot_server binary — /healthz,
#      /metrics (same lint as stage 3, plus the inflight gauge and windowed
#      percentiles), /varz, /slowz, /tracez, a SIGUSR1 stderr stats dump,
#      and the /readyz ready->draining flip during the SIGTERM lame-duck;
#  10. sharded-oracle chaos gate: the chaos harness (crash/NaN/delay
#      injection into shards, quarantine + probe recovery, mid-load hot
#      swaps) under TSan, then a loopback shard-kill smoke — dot_server
#      with 3 shards and a failpoint-killed shard must quarantine it,
#      keep answering, recover it after the fault clears, hot-swap every
#      shard via POST /swapz, export well-formed per-shard labeled
#      metrics, and drain with lost=0;
#  11. continual adaptation gate (DESIGN.md §5k): the trainer-parity and
#      adaptation suites (uncertainty deciles, fine-tune guards) under
#      ASan+UBSan, the fine-tune -> re-seal -> hot-swap chaos case under
#      TSan (the fleet serves while the round publishes), then a live
#      dot_server smoke: POST /adaptz fine-tunes on the incident window
#      and must publish a version bump to every shard, /metrics must carry
#      the labeled dot_train_*{stage=stage1|stage2|finetune} series and
#      still pass the Prometheus lint, SIGHUP must hot-swap once more,
#      and the SIGTERM drain must report lost=0.
# Usage: scripts/check.sh [build_dir] [asan_build_dir]
#   (defaults: build-tsan build-asan)
set -u
cd "$(dirname "$0")/.."
BUILD=${1:-build-tsan}
BUILD_ASAN=${2:-build-asan}
FAILED=0

echo "== configure + build ($BUILD, -DDOT_SANITIZE=thread) =="
cmake -B "$BUILD" -S . -DDOT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  || exit 1
cmake --build "$BUILD" -j "$(nproc)" || exit 1

echo "== tier1 tests under tsan =="
if ! ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j "$(nproc)"; then
  echo "CHECK FAILED: tier1 tests"
  FAILED=1
fi

echo "== metrics text export lint =="
METRICS_TXT=$(mktemp)
trap 'rm -f "$METRICS_TXT"' EXIT
if ! DOT_METRICS_TEXT="$METRICS_TXT" "$BUILD"/tests/obs_test \
    --gtest_filter='MetricsRegistryTest.PrometheusExportIsWellFormed' \
    > /dev/null; then
  echo "CHECK FAILED: obs_test export run"
  FAILED=1
fi
if [ ! -s "$METRICS_TXT" ]; then
  echo "CHECK FAILED: metrics text export is empty"
  FAILED=1
fi
# A line is well-formed iff it is a '#' comment or: a metric name in
# [a-zA-Z_:][a-zA-Z0-9_:]* with an optional {label="..."} set, one space,
# and one numeric value (scientific notation, +Inf and NaN allowed).
BAD=$(grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN))$' \
  "$METRICS_TXT")
if [ -n "$BAD" ]; then
  echo "CHECK FAILED: malformed metrics export lines:"
  echo "$BAD"
  FAILED=1
fi
# The fault-tolerance counters must make it through the registry and into the
# export (satellite of the degradation-ladder work): one labeled series per
# degradation level plus the retry and training-rollback totals.
for METRIC in 'dot_serving_degraded_total\{level="[a-z_]+"\}' \
              dot_serving_retries_total \
              'dot_train_rollbacks_total\{stage="[a-z0-9]+"\}'; do
  if ! grep -qE "^${METRIC} " "$METRICS_TXT"; then
    echo "CHECK FAILED: metrics export is missing ${METRIC}"
    FAILED=1
  fi
done

echo "== configure + build ($BUILD_ASAN, -DDOT_SANITIZE=address,undefined) =="
cmake -B "$BUILD_ASAN" -S . -DDOT_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo || exit 1
cmake --build "$BUILD_ASAN" -j "$(nproc)" || exit 1

echo "== tier1 tests under asan+ubsan =="
if ! ctest --test-dir "$BUILD_ASAN" -L tier1 --output-on-failure \
    -j "$(nproc)"; then
  echo "CHECK FAILED: tier1 tests (asan+ubsan)"
  FAILED=1
fi

echo "== robustness suite under asan+ubsan =="
if ! "$BUILD_ASAN"/tests/robustness_test > /dev/null; then
  echo "CHECK FAILED: robustness_test (asan+ubsan)"
  FAILED=1
fi

echo "== GEMM kernel test matrix under asan+ubsan =="
for KERNEL in naive blocked simd; do
  echo "-- DOT_GEMM_KERNEL=$KERNEL --"
  if ! DOT_GEMM_KERNEL="$KERNEL" ctest --test-dir "$BUILD_ASAN" -L tier1 \
      -j "$(nproc)" > /dev/null; then
    echo "CHECK FAILED: tier1 tests (DOT_GEMM_KERNEL=$KERNEL)"
    FAILED=1
  fi
  if ! DOT_GEMM_KERNEL="$KERNEL" "$BUILD_ASAN"/tests/gemm_differential_test \
      > /dev/null; then
    echo "CHECK FAILED: gemm_differential_test (DOT_GEMM_KERNEL=$KERNEL)"
    FAILED=1
  fi
done

echo "== storage pool matrix under asan+ubsan =="
# Pool ON with poison-on-return: stale-read bugs that recycling could mask
# become NaNs; the tier1 numeric assertions + storage_test catch them.
if ! DOT_TENSOR_POOL=on DOT_POOL_POISON=1 \
    ctest --test-dir "$BUILD_ASAN" -L tier1 -j "$(nproc)" > /dev/null; then
  echo "CHECK FAILED: tier1 tests (DOT_TENSOR_POOL=on, poison)"
  FAILED=1
fi
if ! DOT_TENSOR_POOL=on DOT_POOL_POISON=1 "$BUILD_ASAN"/tests/storage_test \
    > /dev/null; then
  echo "CHECK FAILED: storage_test (DOT_TENSOR_POOL=on, poison)"
  FAILED=1
fi
# Pool OFF: every buffer is a fresh heap allocation freed eagerly, so ASan
# sees true lifetimes (no free-list parking) across the whole tier1 suite.
if ! DOT_TENSOR_POOL=off ctest --test-dir "$BUILD_ASAN" -L tier1 -j "$(nproc)" \
    > /dev/null; then
  echo "CHECK FAILED: tier1 tests (DOT_TENSOR_POOL=off)"
  FAILED=1
fi

echo "== serving front-end: protocol + batching under asan+ubsan =="
# The wire-protocol fuzzing (truncated headers, oversized lengths, garbage
# payloads, torn writes) and the fake-clock batcher policy suite must be
# memory/UB clean — a hostile byte stream exercising UB is exactly what
# these sanitizers exist to catch.
if ! "$BUILD_ASAN"/tests/serve_protocol_test > /dev/null; then
  echo "CHECK FAILED: serve_protocol_test (asan+ubsan)"
  FAILED=1
fi
if ! "$BUILD_ASAN"/tests/serve_batching_test > /dev/null; then
  echo "CHECK FAILED: serve_batching_test (asan+ubsan)"
  FAILED=1
fi

echo "== serving front-end: concurrency stress under tsan =="
# N client threads vs the poll-loop + batcher thread on a loopback server:
# the connection table, outboxes, and stats are all cross-thread state.
if ! "$BUILD"/tests/serve_stress_test > /dev/null; then
  echo "CHECK FAILED: serve_stress_test (tsan)"
  FAILED=1
fi

echo "== serving front-end: loopback e2e smoke =="
# Full binary-to-binary path: start dot_server (trains the demo oracle),
# query it over TCP with the load-gen client, then SIGTERM and require a
# graceful drain ("DRAINED ..." on stdout) and a zero exit.
SMOKE_DIR=$(mktemp -d)
SERVER_LOG="$SMOKE_DIR/server.log"
PORT_FILE="$SMOKE_DIR/port"
"$BUILD_ASAN"/src/serve/dot_server --port-file "$PORT_FILE" \
  --checkpoint "$SMOKE_DIR/oracle.bin" > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 600); do
  [ -s "$PORT_FILE" ] && break
  if ! kill -0 "$SERVER_PID" 2> /dev/null; then break; fi
  sleep 0.5
done
if [ ! -s "$PORT_FILE" ]; then
  echo "CHECK FAILED: dot_server did not come up"
  cat "$SERVER_LOG"
  FAILED=1
else
  PORT=$(cat "$PORT_FILE")
  if ! "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$PORT" \
      --queries 25; then
    echo "CHECK FAILED: serving loopback smoke client"
    FAILED=1
  fi
  kill -TERM "$SERVER_PID"
  if ! wait "$SERVER_PID"; then
    echo "CHECK FAILED: dot_server exited nonzero after SIGTERM"
    FAILED=1
  fi
  if ! grep -q '^DRAINED ' "$SERVER_LOG"; then
    echo "CHECK FAILED: dot_server did not report a graceful drain"
    cat "$SERVER_LOG"
    FAILED=1
  fi
fi
rm -rf "$SMOKE_DIR"

echo "== DOT_FAILPOINTS env arming smoke =="
# Arms a named failpoint purely through the environment; the EnvArmingSmoke
# test asserts the spec was parsed and the point fires (it skips itself when
# the variable is absent, so plain test runs are unaffected).
if ! DOT_FAILPOINTS="check.smoke=error" "$BUILD_ASAN"/tests/util_test \
    --gtest_filter='FailpointTest.*' > /dev/null; then
  echo "CHECK FAILED: failpoint env smoke run"
  FAILED=1
fi

echo "== observability plane: window/ring/gauge suites under tsan =="
# The rolling-window slot rotation, slow-query ring push, and gauge CAS-add
# are all designed to be called from request threads while an admin thread
# snapshots them — exactly the interleaving TSan checks.
if ! "$BUILD"/tests/obs_test \
    --gtest_filter='RollingWindowTest.*:SlowQueryRingTest.*:GaugeAddTest.*' \
    > /dev/null; then
  echo "CHECK FAILED: obs window/ring/gauge suites (tsan)"
  FAILED=1
fi
if ! "$BUILD"/tests/serve_admin_test > /dev/null; then
  echo "CHECK FAILED: serve_admin_test (tsan)"
  FAILED=1
fi

echo "== observability plane: live admin endpoint smoke =="
# Boots dot_server with the admin plane on an ephemeral port and walks every
# endpoint over real HTTP, then checks the SIGUSR1 stats dump and that
# /readyz flips to draining during the SIGTERM lame-duck window.
ADMIN_DIR=$(mktemp -d)
ADMIN_LOG="$ADMIN_DIR/server.log"
ADMIN_PORT_FILE="$ADMIN_DIR/admin_port"
ADMIN_SRV_PORT_FILE="$ADMIN_DIR/port"
DOT_SERVE_LAME_DUCK_MS=3000 "$BUILD_ASAN"/src/serve/dot_server \
  --port-file "$ADMIN_SRV_PORT_FILE" \
  --admin-port 0 --admin-port-file "$ADMIN_PORT_FILE" \
  --checkpoint "$ADMIN_DIR/oracle.bin" > "$ADMIN_LOG" 2>&1 &
ADMIN_SRV_PID=$!
for _ in $(seq 1 600); do
  [ -s "$ADMIN_PORT_FILE" ] && [ -s "$ADMIN_SRV_PORT_FILE" ] && break
  if ! kill -0 "$ADMIN_SRV_PID" 2> /dev/null; then break; fi
  sleep 0.5
done
if [ ! -s "$ADMIN_PORT_FILE" ]; then
  echo "CHECK FAILED: dot_server admin plane did not come up"
  cat "$ADMIN_LOG"
  FAILED=1
else
  APORT=$(cat "$ADMIN_PORT_FILE")
  SPORT=$(cat "$ADMIN_SRV_PORT_FILE")
  # Send a little traffic so the metrics/windows are non-trivial.
  "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$SPORT" \
    --queries 10 > /dev/null || { echo "CHECK FAILED: admin smoke traffic"; FAILED=1; }
  if [ "$(curl -s "http://127.0.0.1:$APORT/healthz")" != "ok" ]; then
    echo "CHECK FAILED: /healthz"
    FAILED=1
  fi
  if [ "$(curl -s -o /dev/null -w '%{http_code}' \
      "http://127.0.0.1:$APORT/readyz")" != "200" ]; then
    echo "CHECK FAILED: /readyz not ready while serving"
    FAILED=1
  fi
  ADMIN_METRICS="$ADMIN_DIR/metrics.txt"
  curl -s "http://127.0.0.1:$APORT/metrics" > "$ADMIN_METRICS"
  ABAD=$(grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN))$' \
    "$ADMIN_METRICS")
  if [ -n "$ABAD" ]; then
    echo "CHECK FAILED: malformed /metrics lines:"
    echo "$ABAD"
    FAILED=1
  fi
  for METRIC in dot_server_inflight dot_server_request_latency_us_window_p95; do
    if ! grep -qE "^${METRIC} " "$ADMIN_METRICS"; then
      echo "CHECK FAILED: /metrics is missing ${METRIC}"
      FAILED=1
    fi
  done
  if ! curl -s "http://127.0.0.1:$APORT/varz" | grep -q '"windows"'; then
    echo "CHECK FAILED: /varz has no windows section"
    FAILED=1
  fi
  if ! curl -s "http://127.0.0.1:$APORT/slowz" | grep -q '"records"'; then
    echo "CHECK FAILED: /slowz"
    FAILED=1
  fi
  if ! curl -s "http://127.0.0.1:$APORT/tracez?sec=0.2" \
      | grep -q '"traceEvents"'; then
    echo "CHECK FAILED: /tracez"
    FAILED=1
  fi
  kill -USR1 "$ADMIN_SRV_PID"
  sleep 1
  if ! grep -q 'SIGUSR1 varz dump' "$ADMIN_LOG"; then
    echo "CHECK FAILED: SIGUSR1 stats dump missing from server log"
    FAILED=1
  fi
  kill -TERM "$ADMIN_SRV_PID"
  sleep 0.5  # inside the 3s lame-duck window: still serving, but draining
  DRAIN_CODE=$(curl -s -o "$ADMIN_DIR/readyz_drain" -w '%{http_code}' \
    "http://127.0.0.1:$APORT/readyz")
  if [ "$DRAIN_CODE" != "503" ] || ! grep -q draining "$ADMIN_DIR/readyz_drain"; then
    echo "CHECK FAILED: /readyz did not flip to draining during lame-duck"
    FAILED=1
  fi
  if ! wait "$ADMIN_SRV_PID"; then
    echo "CHECK FAILED: dot_server exited nonzero after SIGTERM (admin smoke)"
    FAILED=1
  fi
  if ! grep -q '^DRAINED ' "$ADMIN_LOG"; then
    echo "CHECK FAILED: no graceful drain in admin smoke"
    cat "$ADMIN_LOG"
    FAILED=1
  fi
fi
rm -rf "$ADMIN_DIR"

echo "== sharded oracle: chaos harness under tsan =="
# Shard dispatch, health transitions, probes, and hot swaps all race
# against concurrent load threads in this suite — TSan checks the shard /
# router locking for real.
if ! "$BUILD"/tests/chaos_test > /dev/null; then
  echo "CHECK FAILED: chaos_test (tsan)"
  FAILED=1
fi

echo "== sharded oracle: loopback shard-kill smoke =="
# 3-shard dot_server with shard 1's dispatch failpoint armed for 5 hits:
# 3 consecutive failures quarantine the shard, 2 more eat failed probes,
# then the exhausted failpoint lets a probe succeed and the shard must
# come back — all observed live through /shardz while the smoke client
# keeps querying (no request may be lost: DRAINED must report lost=0).
CHAOS_DIR=$(mktemp -d)
CHAOS_LOG="$CHAOS_DIR/server.log"
CHAOS_PORT_FILE="$CHAOS_DIR/port"
CHAOS_ADMIN_PORT_FILE="$CHAOS_DIR/admin_port"
DOT_SERVE_SHARDS=3 DOT_SERVE_PROBE_BACKOFF_MS=200 \
  DOT_FAILPOINTS="serve.shard_dispatch.1=error:5" \
  "$BUILD_ASAN"/src/serve/dot_server \
  --port-file "$CHAOS_PORT_FILE" \
  --admin-port 0 --admin-port-file "$CHAOS_ADMIN_PORT_FILE" \
  --checkpoint "$CHAOS_DIR/oracle.bin" > "$CHAOS_LOG" 2>&1 &
CHAOS_PID=$!
for _ in $(seq 1 600); do
  [ -s "$CHAOS_PORT_FILE" ] && [ -s "$CHAOS_ADMIN_PORT_FILE" ] && break
  if ! kill -0 "$CHAOS_PID" 2> /dev/null; then break; fi
  sleep 0.5
done
if [ ! -s "$CHAOS_PORT_FILE" ]; then
  echo "CHECK FAILED: sharded dot_server did not come up"
  cat "$CHAOS_LOG"
  FAILED=1
else
  CPORT=$(cat "$CHAOS_PORT_FILE")
  CAPORT=$(cat "$CHAOS_ADMIN_PORT_FILE")
  if ! grep -q '^SHARDS 3$' "$CHAOS_LOG"; then
    echo "CHECK FAILED: dot_server did not report 3 shards"
    FAILED=1
  fi
  # Round 1: enough traffic that shard 1 takes 3 consecutive failures.
  # Every query must still be answered (the ladder serves for the shard).
  if ! "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$CPORT" \
      --queries 30 > /dev/null; then
    echo "CHECK FAILED: smoke traffic failed during shard kill"
    FAILED=1
  fi
  if ! curl -s "http://127.0.0.1:$CAPORT/shardz" | grep -q '"quarantined"'; then
    echo "CHECK FAILED: killed shard was not quarantined"
    curl -s "http://127.0.0.1:$CAPORT/shardz"
    FAILED=1
  fi
  # Keep traffic flowing across the probe backoff windows (200/400/800 ms)
  # until the exhausted failpoint lets a probe through and /shardz shows
  # every shard healthy again.
  RECOVERED=0
  for _ in $(seq 1 30); do
    sleep 0.3
    "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$CPORT" \
      --queries 10 > /dev/null 2>&1
    if ! curl -s "http://127.0.0.1:$CAPORT/shardz" | grep -q '"quarantined"'
    then
      RECOVERED=1
      break
    fi
  done
  if [ "$RECOVERED" -ne 1 ]; then
    echo "CHECK FAILED: killed shard did not recover after failpoint drained"
    curl -s "http://127.0.0.1:$CAPORT/shardz"
    FAILED=1
  fi
  # Zero-downtime hot swap via the admin plane: POST flips every shard to
  # model_version 2 (GET must be rejected — it is the mutating endpoint).
  if [ "$(curl -s -o /dev/null -w '%{http_code}' \
      "http://127.0.0.1:$CAPORT/swapz")" != "405" ]; then
    echo "CHECK FAILED: GET /swapz was not rejected"
    FAILED=1
  fi
  if ! curl -s -X POST "http://127.0.0.1:$CAPORT/swapz" | grep -q 'swap ok'
  then
    echo "CHECK FAILED: POST /swapz"
    FAILED=1
  fi
  if curl -s "http://127.0.0.1:$CAPORT/shardz" \
      | grep -q '"model_version": 1'; then
    echo "CHECK FAILED: a shard still serves model_version 1 after /swapz"
    curl -s "http://127.0.0.1:$CAPORT/shardz"
    FAILED=1
  fi
  # Per-shard labeled series must export well-formed (the stage-3 lint
  # only sees unsharded processes; this is the labeled-metric variant).
  CHAOS_METRICS="$CHAOS_DIR/metrics.txt"
  curl -s "http://127.0.0.1:$CAPORT/metrics" > "$CHAOS_METRICS"
  CBAD=$(grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN))$' \
    "$CHAOS_METRICS")
  if [ -n "$CBAD" ]; then
    echo "CHECK FAILED: malformed sharded /metrics lines:"
    echo "$CBAD"
    FAILED=1
  fi
  for METRIC in 'dot_shard_cache_hits_total\{shard="0"\}' \
                'dot_shard_quality_total\{shard="1",level="fallback"\}' \
                'dot_shard_quarantines_total\{shard="1"\}' \
                'dot_shard_health\{shard="2"\}' \
                'dot_shard_model_version\{shard="0"\}'; do
    if ! grep -qE "^${METRIC} " "$CHAOS_METRICS"; then
      echo "CHECK FAILED: sharded /metrics is missing ${METRIC}"
      FAILED=1
    fi
  done
  kill -TERM "$CHAOS_PID"
  if ! wait "$CHAOS_PID"; then
    echo "CHECK FAILED: sharded dot_server exited nonzero after SIGTERM"
    FAILED=1
  fi
  if ! grep -qE '^DRAINED .*lost=0' "$CHAOS_LOG"; then
    echo "CHECK FAILED: sharded drain lost requests"
    cat "$CHAOS_LOG"
    FAILED=1
  fi
fi
rm -rf "$CHAOS_DIR"

echo "== continual adaptation: trainer parity + adaptation suites under asan+ubsan =="
# The extracted training loop must stay bitwise-parity with the historical
# stage loops, and the uncertainty/fine-tune guards must be memory/UB clean.
if ! "$BUILD_ASAN"/tests/trainer_test > /dev/null; then
  echo "CHECK FAILED: trainer_test (asan+ubsan)"
  FAILED=1
fi
if ! "$BUILD_ASAN"/tests/adaptation_test > /dev/null; then
  echo "CHECK FAILED: adaptation_test (asan+ubsan)"
  FAILED=1
fi

echo "== continual adaptation: fine-tune -> hot-swap chaos under tsan =="
# One adaptation round fine-tunes, re-seals, and swaps a 2-shard fleet
# while a load thread keeps querying it — the shard RW locks, the swap
# path, and the manager's history mutex all race for real here.
if ! "$BUILD"/tests/adaptation_test \
    --gtest_filter='AdaptationFixture.FineTuneHotSwapChaosUnderLoad' \
    > /dev/null; then
  echo "CHECK FAILED: adaptation_test chaos case (tsan)"
  FAILED=1
fi

echo "== continual adaptation: live /adaptz fine-tune + SIGHUP swap smoke =="
# Boots dot_server, runs one continual fine-tune round over the admin
# plane (fresh incident trajectories, replay mix, canary gate, hot-swap
# publish), then SIGHUPs for one more swap and requires a lossless drain.
ADAPT_DIR=$(mktemp -d)
ADAPT_LOG="$ADAPT_DIR/server.log"
ADAPT_PORT_FILE="$ADAPT_DIR/port"
ADAPT_ADMIN_PORT_FILE="$ADAPT_DIR/admin_port"
DOT_SERVE_SHARDS=2 "$BUILD_ASAN"/src/serve/dot_server \
  --port-file "$ADAPT_PORT_FILE" \
  --admin-port 0 --admin-port-file "$ADAPT_ADMIN_PORT_FILE" \
  --checkpoint "$ADAPT_DIR/oracle.bin" > "$ADAPT_LOG" 2>&1 &
ADAPT_PID=$!
for _ in $(seq 1 600); do
  [ -s "$ADAPT_PORT_FILE" ] && [ -s "$ADAPT_ADMIN_PORT_FILE" ] && break
  if ! kill -0 "$ADAPT_PID" 2> /dev/null; then break; fi
  sleep 0.5
done
if [ ! -s "$ADAPT_PORT_FILE" ]; then
  echo "CHECK FAILED: dot_server (adapt smoke) did not come up"
  cat "$ADAPT_LOG"
  FAILED=1
else
  TPORT=$(cat "$ADAPT_PORT_FILE")
  TAPORT=$(cat "$ADAPT_ADMIN_PORT_FILE")
  # Traffic before the round so the swap happens under a warmed fleet.
  "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$TPORT" \
    --queries 10 > /dev/null || { echo "CHECK FAILED: adapt smoke traffic"; FAILED=1; }
  if ! curl -s "http://127.0.0.1:$TAPORT/adaptz" | grep -q '"rounds": 0'; then
    echo "CHECK FAILED: GET /adaptz before any round"
    FAILED=1
  fi
  # The round simulates fresh incident trips and fine-tunes synchronously;
  # give it a generous sanitizer-friendly timeout.
  ADAPT_ROUND="$ADAPT_DIR/round.json"
  if ! curl -s -m 1800 -X POST "http://127.0.0.1:$TAPORT/adaptz" \
      -o "$ADAPT_ROUND"; then
    echo "CHECK FAILED: POST /adaptz"
    FAILED=1
  fi
  if ! grep -q '"published": true' "$ADAPT_ROUND"; then
    echo "CHECK FAILED: adaptation round did not publish:"
    cat "$ADAPT_ROUND"
    FAILED=1
  fi
  if curl -s "http://127.0.0.1:$TAPORT/shardz" \
      | grep -q '"model_version": 1'; then
    echo "CHECK FAILED: a shard still serves model_version 1 after /adaptz"
    curl -s "http://127.0.0.1:$TAPORT/shardz"
    FAILED=1
  fi
  # The adapted model keeps serving.
  "$BUILD_ASAN"/bench/bench_serving_load --client-smoke --port "$TPORT" \
    --queries 10 > /dev/null || { echo "CHECK FAILED: post-adapt traffic"; FAILED=1; }
  # Labeled per-stage training series (base training + the fine-tune that
  # just ran in-process) must export well-formed.
  ADAPT_METRICS="$ADAPT_DIR/metrics.txt"
  curl -s "http://127.0.0.1:$TAPORT/metrics" > "$ADAPT_METRICS"
  TBAD=$(grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN))$' \
    "$ADAPT_METRICS")
  if [ -n "$TBAD" ]; then
    echo "CHECK FAILED: malformed adapt /metrics lines:"
    echo "$TBAD"
    FAILED=1
  fi
  for METRIC in 'dot_train_epochs_total\{stage="stage1"\}' \
                'dot_train_epochs_total\{stage="stage2"\}' \
                'dot_train_epochs_total\{stage="finetune"\}' \
                'dot_train_rollbacks_total\{stage="finetune"\}' \
                'dot_train_epoch_loss\{stage="finetune"\}'; do
    if ! grep -qE "^${METRIC} " "$ADAPT_METRICS"; then
      echo "CHECK FAILED: adapt /metrics is missing ${METRIC}"
      FAILED=1
    fi
  done
  # SIGHUP: one more zero-downtime swap of the freshly sealed checkpoint.
  kill -HUP "$ADAPT_PID"
  SWAPPED=0
  for _ in $(seq 1 60); do
    sleep 0.5
    if grep -q 'SIGHUP swap ok' "$ADAPT_LOG"; then
      SWAPPED=1
      break
    fi
  done
  if [ "$SWAPPED" -ne 1 ]; then
    echo "CHECK FAILED: SIGHUP swap after /adaptz"
    cat "$ADAPT_LOG"
    FAILED=1
  fi
  kill -TERM "$ADAPT_PID"
  if ! wait "$ADAPT_PID"; then
    echo "CHECK FAILED: dot_server (adapt smoke) exited nonzero after SIGTERM"
    FAILED=1
  fi
  if ! grep -qE '^DRAINED .*lost=0' "$ADAPT_LOG"; then
    echo "CHECK FAILED: adapt smoke drain lost requests"
    cat "$ADAPT_LOG"
    FAILED=1
  fi
fi
rm -rf "$ADAPT_DIR"

if [ "$FAILED" -ne 0 ]; then
  echo "CHECK FAILED"
  exit 1
fi
echo "CHECK OK"
