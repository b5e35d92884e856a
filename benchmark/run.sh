#!/usr/bin/env bash
# Campaign benchmark entry point: builds ccbench (Release) into
# build-benchmark/ and hands over to run.py. See benchmark/README.md.
#
#   benchmark/run.sh [--trace] [--smoke] [--sets N] [--seed S] [--seconds N]
#                    [--out FILE] [--append]
#       Runs every workload, each in a fresh process, prints every metric
#       with its unit and writes benchmark/out/results.json (or FILE).
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace 0|1]
#       One run; the last stdout line is the JSON result BENCHMARK.json's
#       command promises.
#
# Exits non-zero when the build fails or any output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-benchmark
if [[ ! -f "$BUILD_DIR/Makefile" ]]; then
  cmake -S benchmark -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release \
    -DBUILD_TESTING=OFF >&2
fi
# Like scripts/bench_regression.sh: never measure anything but Release.
BUILD_TYPE="$(grep -E '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" | cut -d= -f2)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "run.sh: $BUILD_DIR is configured as '$BUILD_TYPE', not Release" >&2
  exit 1
fi
# Closed loop: one process, at most four pool threads plus the driver thread.
CCFUZZ_THREADS="$(( $(nproc) < 4 ? $(nproc) : 4 ))"
export CCFUZZ_THREADS
cmake --build "$BUILD_DIR" --target ccbench -j"$CCFUZZ_THREADS" >&2
exec python3 benchmark/run.py --binary "$BUILD_DIR/ccbench" \
  --compiler "$(grep -E '^CMAKE_CXX_COMPILER:' "$BUILD_DIR/CMakeCache.txt" | cut -d= -f2)" \
  "$@"
