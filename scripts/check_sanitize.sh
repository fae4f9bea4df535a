#!/usr/bin/env bash
# CI-style sanitizer gate, three stages:
#
#   1. MTD_SANITIZE=ON (ASan + UBSan on every target), build, run the full
#      test suite.
#   2. MTD_TSAN=ON (ThreadSanitizer), build, run the engine-side suites —
#      the tests that exercise the SPSC rings, the stop-token/watchdog
#      synchronization, fault-injection shutdown paths, supervised
#      recovery, and the use cases' parallel Monte-Carlo jobs.
#   3. MTD_UBSAN=ON (UBSan alone, no ASan), build, run the full suite.
#      ASan's shadow memory and interceptors perturb layout and timing
#      enough to mask some UB; this lane checks the code the way the
#      uninstrumented release binary runs it.
#
# Any sanitizer report aborts the run (-fno-sanitize-recover=all) and fails
# the job.
#
# Usage: scripts/check_sanitize.sh [build-dir] [ctest-regex]
#   build-dir    defaults to build-sanitize (the TSan stage appends -tsan,
#                the standalone UBSan stage appends -ubsan)
#   ctest-regex  optional -R filter for the ASan stage, e.g. 'Engine|SpscRing'
#
# Environment:
#   MTD_SKIP_TSAN=1   skip the TSan stage
#   MTD_SKIP_ASAN=1   skip the ASan/UBSan stage (the CI tsan and ubsan jobs
#                     use the skips so the stages run as parallel jobs
#                     instead of serially)
#   MTD_SKIP_UBSAN=1  skip the standalone UBSan stage
#
# The standalone UBSan stage probes the toolchain first and skips gracefully
# (exit 0 with a notice) when the compiler cannot link -fsanitize=undefined
# on its own, so the gate stays usable on minimal images.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR="${1:-build-sanitize}"
FILTER="${2:-}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Engine-side tests gated under TSan: everything with cross-thread
# synchronization (rings, the typed event plane, engine, checkpoint/resume,
# faults, supervision, a 3-worker engine's stream aggregated into a
# dataset) plus the
# trace store, whose writer is fed from the engine's consumer thread and
# whose fault points fire under load, the store runner's kill-and-resume
# suite, the session-source parity suite
# (engine runs feeding both sources), and parallel_for with its callers:
# the use cases' Monte-Carlo jobs, collect_dataset's per-cell jobs and their
# fold frontier, and the registry's per-service model fits.
TSAN_FILTER='SpscRing|EventPlane|StreamEngine|EngineCheckpoint|EngineFault|Supervisor|StoreSupervised|NetworkFingerprint|TraceStore|SessionSource|ParallelFor|Slicing|Vran|UseCaseGolden|CollectDataset|ParallelDataset|ParallelModelFit'

if [[ "${MTD_SKIP_ASAN:-0}" == "1" ]]; then
  echo "skipping asan/ubsan stage (MTD_SKIP_ASAN=1)"
else
  cmake -B "$BUILD_DIR" -S . \
    -DMTD_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$JOBS"

  export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

  CTEST_ARGS=(--test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS")
  if [[ -n "$FILTER" ]]; then
    CTEST_ARGS+=(-R "$FILTER")
  fi
  ctest "${CTEST_ARGS[@]}"

  echo "asan/ubsan check passed"
fi

if [[ "${MTD_SKIP_TSAN:-0}" == "1" ]]; then
  echo "skipping tsan stage (MTD_SKIP_TSAN=1)"
else
  TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_BUILD_DIR" -S . \
    -DMTD_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$TSAN_BUILD_DIR" -j "$JOBS"

  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R "$TSAN_FILTER"

  echo "tsan check passed"
fi

if [[ "${MTD_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "skipping standalone ubsan stage (MTD_SKIP_UBSAN=1)"
else
  # Probe: can this toolchain compile and link -fsanitize=undefined on its
  # own? Some minimal images ship the ASan runtime but not libubsan; skip
  # gracefully rather than failing the gate on an environment limitation.
  PROBE_DIR="$(mktemp -d)"
  trap 'rm -rf "$PROBE_DIR"' EXIT
  echo 'int main() { return 0; }' > "$PROBE_DIR/probe.cpp"
  CXX_BIN="${CXX:-c++}"
  if ! "$CXX_BIN" -fsanitize=undefined -fno-sanitize-recover=all \
      -o "$PROBE_DIR/probe" "$PROBE_DIR/probe.cpp" 2>/dev/null; then
    echo "skipping standalone ubsan stage: $CXX_BIN cannot link" \
      "-fsanitize=undefined on this image"
    echo "sanitize check passed"
    exit 0
  fi

  UBSAN_BUILD_DIR="${BUILD_DIR}-ubsan"
  cmake -B "$UBSAN_BUILD_DIR" -S . \
    -DMTD_UBSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$UBSAN_BUILD_DIR" -j "$JOBS"

  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

  ctest --test-dir "$UBSAN_BUILD_DIR" --output-on-failure -j "$JOBS"

  echo "standalone ubsan check passed"
fi

echo "sanitize check passed"
