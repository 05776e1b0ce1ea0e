#!/usr/bin/env bash
# Smoke benchmark: runs the micro-benchmarks and a shrunken Figure-4
# bench with tiny parameters and emits one JSON document, seeding the
# BENCH_*.json perf trajectory. Fast enough for CI (~2 min on 4 cores).
#
# Usage: bench/run_smoke.sh [output.json]
#   BUILD_DIR  build tree holding the bench binaries (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_smoke.json}

for bench in bench_fig04_ro_latency bench_consensus_compare bench_apply_pipeline bench_durability bench_watch_fanout; do
  if [[ ! -x "$BUILD_DIR/$bench" ]]; then
    echo "error: $BUILD_DIR/$bench not built" >&2
    echo "hint: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

fig04_json=$(TRANSEDGE_SMOKE=1 "$BUILD_DIR/bench_fig04_ro_latency" | grep '^{')
consensus_json=$(TRANSEDGE_SMOKE=1 "$BUILD_DIR/bench_consensus_compare" | grep '^{')
apply_json=$(TRANSEDGE_SMOKE=1 "$BUILD_DIR/bench_apply_pipeline" | grep '^{')
durability_json=$(TRANSEDGE_SMOKE=1 "$BUILD_DIR/bench_durability" | grep '^{')
watch_json=$(TRANSEDGE_SMOKE=1 "$BUILD_DIR/bench_watch_fanout" | grep '^{')

# bench_micro is optional (needs google-benchmark); emit native JSON when
# present, a placeholder otherwise.
if [[ -x "$BUILD_DIR/bench_micro" ]]; then
  micro_json=$("$BUILD_DIR/bench_micro" \
    --benchmark_filter='BM_Sha256/256|BM_HashPair|BM_HmacSign|BM_HmacVerify|BM_MerklePut/13|BM_MerkleApplyBatch/64|BM_MerkleProve|BM_MerkleVerifyProofs/16|BM_StoreLatestVersion/4096/1' \
    --benchmark_min_time=0.05 --benchmark_format=json 2>/dev/null)
else
  micro_json='{"skipped":"bench_micro not built (google-benchmark missing)"}'
fi

{
  echo '{'
  echo '"generated_by": "bench/run_smoke.sh",'
  echo '"micro":'
  echo "$micro_json"
  echo ','
  echo '"fig04_ro_latency":'
  echo "$fig04_json"
  echo ','
  echo '"consensus_compare":'
  echo "$consensus_json"
  echo ','
  echo '"apply_pipeline":'
  echo "$apply_json"
  echo ','
  echo '"durability":'
  echo "$durability_json"
  echo ','
  echo '"watch_fanout":'
  echo "$watch_json"
  echo '}'
} > "$OUT"

echo "wrote $OUT" >&2
