#!/bin/sh
# Regenerate the PERF benches' BENCH_*.json files at the repository root.
#
#   tools/bench_all.sh [BUILD_DIR]      (default BUILD_DIR: build-bench)
#
# Configures BUILD_DIR as a Release tree, builds the six benches, and runs
# each one with its default bars, writing its JSON through its own --json=
# flag: BENCH_hammer, BENCH_harvest, BENCH_sweep, BENCH_snapshot,
# BENCH_shard and BENCH_geometry. Every bench runs even if an earlier one
# fails. The exit status is non-zero if the build fails or any bench fails
# (a missed bar, a verification mismatch, or a JSON it could not write).
set -u

cd "$(dirname "$0")/.." || exit 2
root=$(pwd)
build=${1:-build-bench}

cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null || exit 2
cmake --build "$build" -j "$(nproc)" --target \
    bench_hammer_burst bench_harvest bench_sweep bench_snapshot \
    bench_shard bench_geometry || exit 2

status=0
for pair in hammer_burst:hammer harvest:harvest sweep:sweep \
            snapshot:snapshot shard:shard geometry:geometry; do
  bench=bench_${pair%%:*}
  json=$root/BENCH_${pair##*:}.json
  echo "== $bench -> BENCH_${pair##*:}.json"
  if ! (cd "$build" && "./$bench" "--json=$json"); then
    echo "bench_all: $bench failed" >&2
    status=1
  fi
done
exit $status
