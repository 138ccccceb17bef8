#!/usr/bin/env sh
# Builds (if needed) and runs the six gated benchmarks, writing their
# BENCH_*.json files to out-dir. The default out-dir is the repo root, which
# regenerates the committed baselines. Check a run with
# `python3 bench/check_gates.py <out-dir>`.
#
# Usage: bench/run_benches.sh [build-dir] [out-dir]
#   build-dir defaults to build, out-dir to the repo root; relative paths
#   are taken from the repo root.
#
# A bench exits non-zero only on a correctness failure (bitwise equality,
# oracle checks, invariants), which stops the script; speed bars are the
# checker's job.
set -e

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)" \
  --target bench_fig2_kernels bench_fig3_blocksize bench_ksource \
  bench_multitenant bench_serve bench_obs_overhead
mkdir -p "$OUT_DIR"

run() {
  APSPARK_BENCH_JSON="$OUT_DIR/$2" "$BUILD_DIR/$1"
}
run bench_fig2_kernels BENCH_kernels.json
run bench_fig3_blocksize BENCH_fig3.json
run bench_ksource BENCH_ksource.json
run bench_multitenant BENCH_multitenant.json
run bench_serve BENCH_serve.json
run bench_obs_overhead BENCH_obs.json
