#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark (see bench/e2e/README.md).
#
# One workload, one JSON result line last on stdout:
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-out FILE] [--out FILE]
# All four workloads, one after another, results in OUT_DIR:
#   bench/e2e/run.sh OUT_DIR [--seed N] [--trace] [--repeat N]
#     Run i of a workload uses seed N+i and writes
#     OUT_DIR/<workload>.<i>.json (plus <workload>.<i>.trace.json with
#     --trace, a Chrome trace that opens in Perfetto).
#
# Exits non-zero when the build fails or any correctness gate fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build_dir="build-e2e"
bin="$build_dir/e2e_bench"
workloads=(ro_snapshot rw_commit mixed_failover watch_push)

build() {
  if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: no TransEdge sources under $root" >&2
    exit 2
  fi
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    cmake -S bench/e2e -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  if (( jobs > 4 )); then jobs=4; fi
  cmake --build "$build_dir" --target e2e_bench -j "$jobs" >&2
}

if [[ $# -eq 0 ]]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi

if [[ "$1" == --* ]]; then
  build
  exec "$bin" "$@"
fi

out_dir="$1"
shift
seed=42
trace=0
repeat=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
build
mkdir -p "$out_dir"
status=0
for w in "${workloads[@]}"; do
  for (( i = 0; i < repeat; i++ )); do
    args=(--workload "$w" --seed "$(( seed + i ))" --trace "$trace"
          --out "$out_dir/$w.$i.json")
    if (( trace )); then
      args+=(--trace-out "$out_dir/$w.$i.trace.json")
    fi
    # Everything but the final JSON line: `workload metric value unit`.
    if ! "$bin" "${args[@]}" | sed '$d'; then
      status=1
    fi
  done
done
exit "$status"
