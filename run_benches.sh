#!/bin/bash
# Runs every bench binary in sequence, continuing on failure.
# Usage: ./run_benches.sh [output_file]
OUT=${1:-bench_output.txt}
: > "$OUT"
# bench_table5_efficiency dumps the single-vs-batched serving comparison here.
export DOT_BENCH_BATCHED_JSON=${DOT_BENCH_BATCHED_JSON:-BENCH_batched.json}
# ... and a metrics + op-profile snapshot of its serving section here.
export DOT_BENCH_SERVING_METRICS_JSON=${DOT_BENCH_SERVING_METRICS_JSON:-BENCH_serving_metrics.json}
# bench_gemm dumps the per-kernel GEMM throughput table (naive/blocked/simd).
export DOT_BENCH_GEMM_JSON=${DOT_BENCH_GEMM_JSON:-BENCH_gemm.json}
# bench_serving_load dumps the socket front-end throughput/latency sweep
# (closed loop + open-loop Poisson rates, wave sizes, degradation mix).
export DOT_BENCH_SERVING_LOAD_JSON=${DOT_BENCH_SERVING_LOAD_JSON:-BENCH_serving.json}
# bench_ablation_sampler dumps MAE/RMSE/latency per DDIM step count.
export DOT_BENCH_SAMPLER_JSON=${DOT_BENCH_SAMPLER_JSON:-BENCH_sampler.json}
# bench_adaptation dumps incident staleness curves before/after the
# continual fine-tune round plus the swap-under-load error counts; the
# binary exits non-zero when a recovery/zero-error/version gate fails.
export DOT_BENCH_ADAPTATION_JSON=${DOT_BENCH_ADAPTATION_JSON:-BENCH_adaptation.json}
for b in build/bench/bench_*; do
  echo "===== $b =====" | tee -a "$OUT"
  timeout 3600 "$b" >> "$OUT" 2>&1 || echo "FAILED: $b" | tee -a "$OUT"
done
echo "ALL_BENCHES_DONE" | tee -a "$OUT"
