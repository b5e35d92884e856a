#!/usr/bin/env bash
# Benchmark regression tracking: build Release, run the micro benches with
# JSON output, and write BENCH_sim.json at the repo root so the performance
# trajectory is recorded across PRs.
#
# Usage: scripts/bench_regression.sh [build-dir]
#   BENCH_MIN_TIME=0.5   per-benchmark min measurement time in seconds
#   BENCH_SMOKE=1        quick pass (tiny min time, no file update) — used by
#                        the smoke script and CI to check the benches run
#
# Note on build types: google-benchmark's JSON context reports
# "library_build_type" for the *benchmark library itself* — Debian ships a
# no-NDEBUG build that reports "debug" regardless of how ccfuzz is compiled.
# This script configures ccfuzz as Release, verifies that against the CMake
# cache, and stamps the verified type into the JSON as "app_build_type" so
# the perf trajectory records what was actually measured.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
MIN_TIME="${BENCH_MIN_TIME:-0.5}"
SMOKE="${BENCH_SMOKE:-0}"
if [[ "$SMOKE" == "1" ]]; then
  MIN_TIME="0.01"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target micro_sim micro_ga -j"$(nproc)" >/dev/null

# Guard against a stale cache configured with another build type: the
# trajectory must never record a non-Release ccfuzz measurement.
APP_BUILD_TYPE="$(grep -E '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" | cut -d= -f2)"
if [[ "$APP_BUILD_TYPE" != "Release" ]]; then
  echo "bench_regression: $BUILD_DIR is configured as '$APP_BUILD_TYPE', not Release" >&2
  exit 1
fi

# Exit 3 is the documented "benchmark library unavailable" code; every other
# non-zero exit is a real failure callers must not swallow.
if ! [[ -x "$BUILD_DIR/bench/micro_sim" ]]; then
  echo "bench_regression: micro benches not built (google-benchmark missing)" >&2
  exit 3
fi

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# The sim filter is explicit so new hot-path benches (the timer re-arm
# bench BM_TimerRearmHeavy, BM_Dumbbell16FlowSimulatedSecond and the
# cross-traffic lane's BM_DumbbellCrossTrafficSimulatedSecond included) are
# a deliberate part of the tracked trajectory, not an accident of whatever
# the binary happens to contain.
"$BUILD_DIR/bench/micro_sim" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_filter='BM_EventQueueChurn|BM_EventQueueChurnCold|BM_TimerRearmHeavy|BM_DumbbellSimulatedSecond|BM_DumbbellBbrSimulatedSecond|BM_Dumbbell4FlowSimulatedSecond|BM_Dumbbell16FlowSimulatedSecond|BM_DumbbellCrossTrafficSimulatedSecond|BM_DumbbellFullEventsSimulatedSecond|BM_DistPackets5000|BM_WindowedMaxFilter' \
  --benchmark_format=json >"$OUT/sim.json" 2>/dev/null
"$BUILD_DIR/bench/micro_ga" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_filter='BM_TrafficMutation|BM_TrafficCrossover|BM_RankSelection|BM_EvaluateBatch|BM_EliteArchive' \
  --benchmark_format=json >"$OUT/ga.json" 2>/dev/null

if [[ "$SMOKE" == "1" ]]; then
  # Smoke mode just proves the harness runs end to end.
  python3 - "$OUT/sim.json" "$OUT/ga.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    data = json.load(open(path))
    assert data["benchmarks"], f"no benchmarks in {path}"
print("bench smoke OK "
      f"({sum(len(json.load(open(p))['benchmarks']) for p in sys.argv[1:])} benchmarks)")
EOF
  exit 0
fi

APP_BUILD_TYPE="$APP_BUILD_TYPE" python3 - "$OUT/sim.json" "$OUT/ga.json" BENCH_sim.json <<'EOF'
import json, os, sys
sim, ga, dest = sys.argv[1], sys.argv[2], sys.argv[3]
merged = {"context": json.load(open(sim))["context"], "benchmarks": []}
# library_build_type describes the system benchmark library; the ccfuzz
# build type is what the trajectory actually measures.
merged["context"]["app_build_type"] = os.environ["APP_BUILD_TYPE"].lower()
for path in (sim, ga):
    merged["benchmarks"].extend(json.load(open(path))["benchmarks"])
json.dump(merged, open(dest, "w"), indent=1)
print(f"wrote {dest} ({len(merged['benchmarks'])} benchmarks, "
      f"app_build_type={merged['context']['app_build_type']})")
for b in merged["benchmarks"]:
    rate = f"  {b['items_per_second']:.4g} items/s" if "items_per_second" in b else ""
    print(f"  {b['name']}: {b['real_time']:.0f} {b['time_unit']}{rate}")
EOF
