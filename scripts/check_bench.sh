#!/usr/bin/env bash
# Benchmark smoke gate, three stages:
#
#   1. Build the perf-tracking binaries (bench_hot_paths,
#      bench_engine_throughput, bench_store). When ccache is installed it is
#      wired in as the compiler launcher so repeat CI runs rebuild only what
#      changed.
#   2. Run them under MTD_BENCH_FAST=1 with google-benchmark timings
#      filtered out: a smoke pass that exercises every measured kernel and
#      writes BENCH_hotpaths.json / BENCH_engine.json / BENCH_store.json
#      into the build dir.
#   3. Validate the JSON reports against their documented schemas (skipped
#      with a notice when python3 is unavailable).
#
# The reports are the CI perf artifacts; trends are read across runs, so
# the gate checks shape and sanity (positive rates, required keys) — with
# ONE deliberate exception: the end-to-end generator throughput ratchet.
#
#   4. Ratchet: the batch-kernel sessions/s from the kernel_sweep section
#      must not regress more than 10% below the committed baseline row
#      (bench/BENCH_baseline.json). The baseline records the host it was
#      measured on; on any other host the ratchet is skipped with a notice
#      (absolute numbers do not transfer across machines). Re-measure with
#      --update-baseline after intentional perf changes; set
#      MTD_BENCH_ALLOW_REGRESSION=1 to waive the gate for one run (e.g. a
#      knowingly loaded host).
#
# Usage: scripts/check_bench.sh [build-dir] [--update-baseline]
#   build-dir  defaults to build-bench
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=build-bench
UPDATE_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE_BASELINE=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
BASELINE_FILE=bench/BENCH_baseline.json
JOBS="$(nproc 2>/dev/null || echo 2)"

# --- Stage 1: build.
CONFIGURE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if command -v ccache >/dev/null 2>&1; then
  CONFIGURE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  echo "ccache: enabled"
else
  echo "ccache: not installed, building without a launcher"
fi
cmake -B "$BUILD_DIR" -S . "${CONFIGURE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target bench_hot_paths bench_engine_throughput bench_store

# --- Stage 2: smoke runs (reports land in the build dir).
(
  cd "$BUILD_DIR"
  MTD_BENCH_FAST=1 ./bench/bench_hot_paths --benchmark_filter=NONE
  MTD_BENCH_FAST=1 ./bench/bench_engine_throughput --benchmark_filter=NONE
  MTD_BENCH_FAST=1 ./bench/bench_store
)
test -s "$BUILD_DIR/BENCH_hotpaths.json"
test -s "$BUILD_DIR/BENCH_engine.json"
test -s "$BUILD_DIR/BENCH_store.json"

# --- Stage 3: schema validation.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/BENCH_hotpaths.json" "$BUILD_DIR/BENCH_engine.json" \
      "$BUILD_DIR/BENCH_store.json" <<'PYEOF'
import json
import sys

hotpaths = json.load(open(sys.argv[1]))
assert hotpaths["bench"] == "hot_paths", hotpaths.get("bench")
rows = hotpaths["rows"]
assert rows, "BENCH_hotpaths.json has no rows"
for row in rows:
    for key in ("name", "unit", "baseline_per_s", "optimized_per_s",
                "speedup"):
        assert key in row, f"hot_paths row missing {key}: {row}"
    assert row["baseline_per_s"] > 0, row
    assert row["optimized_per_s"] > 0, row
names = {row["name"] for row in rows}
for expected in ("service_draw", "mixture_draw", "circadian_minute", "pow10",
                 "uniform_block", "pow10_block", "alias_sample_block",
                 "minute_batch_fill",
                 "mixture_scan_k2", "mixture_scan_k4",
                 "mixture_scan_k8", "mixture_scan_k16",
                 "ndjson_serialize", "binary_serialize", "csv_serialize",
                 "page_checksum"):
    assert expected in names, f"hot_paths rows missing {expected}"

engine = json.load(open(sys.argv[2]))
assert engine["bench"] == "engine_throughput", engine.get("bench")
for sweep, key in (("worker_sweep", "workers"), ("batch_sweep",
                                                 "batch_size"),
                   ("kernel_sweep", "kernel")):
    rows = engine[sweep]
    assert rows, f"BENCH_engine.json has empty {sweep}"
    for row in rows:
        for field in (key, "sessions", "wall_s", "sessions_per_s"):
            assert field in row, f"{sweep} row missing {field}: {row}"
        assert row["sessions"] > 0, row
        assert row["dropped"] == 0 if "dropped" in row else True, row

kernel_rows = engine["kernel_sweep"]
kernels = {row["kernel"] for row in kernel_rows}
assert kernels == {"scalar", "batch"}, kernels
for row in kernel_rows:
    for field in ("workers", "mbytes_per_s", "speedup_vs_scalar"):
        assert field in row, f"kernel_sweep row missing {field}: {row}"

store = json.load(open(sys.argv[3]))
assert store["bench"] == "store", store.get("bench")
for section, rate in (("ingest", "events_per_s"),
                      ("replay", "events_per_s")):
    row = store[section]
    assert rate in row, f"store {section} missing {rate}: {row}"
    assert row[rate] > 0, f"store {section} rate not positive: {row}"
assert store["ingest"]["events"] > 0, store["ingest"]
assert store["ingest"]["pages"] > 0, store["ingest"]
assert store["replay"]["events"] == store["ingest"]["events"], store
for key in ("pages_read", "leaves_skipped_fence"):
    assert key in store["scan"], f"store scan missing {key}: {store['scan']}"
# The index must prune: the single-BS scan reads fewer pages than replay.
assert store["scan"]["pages_read"] < store["replay"]["pages_read"], store

compaction = store["compaction"]
for key in ("days", "events", "segments_before", "segments_after", "wall_s",
            "pages_written", "pages_retired", "index_pages_before",
            "index_pages_after", "scan_pages_before", "scan_pages_after"):
    assert key in compaction, f"store compaction missing {key}: {compaction}"
assert compaction["segments_before"] > 1, compaction
assert compaction["segments_after"] == 1, compaction
# The point of the merge: one root and fence chain instead of one per day.
assert compaction["index_pages_after"] < compaction["index_pages_before"], \
    compaction
assert compaction["scan_pages_after"] <= compaction["scan_pages_before"], \
    compaction
hourly = store["compaction_48"]
for key in ("segments_before", "events", "pages_written", "wall_s",
            "heap_growth_mb"):
    assert key in hourly, f"store compaction_48 missing {key}: {hourly}"
assert hourly["segments_before"] == 48, hourly

print("bench report schemas: ok")
PYEOF
else
  echo "python3: not installed, schema validation skipped"
fi

# --- Stage 4: end-to-end throughput ratchet against the committed baseline.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/BENCH_engine.json" "$BASELINE_FILE" \
      "$UPDATE_BASELINE" <<'PYEOF'
import json
import os
import socket
import sys

engine = json.load(open(sys.argv[1]))
baseline_path = sys.argv[2]
update = sys.argv[3] == "1"

# The tracked number: best batch-kernel sessions/s across worker counts
# (the sweep records every count; the ratchet follows the envelope so a
# scheduling hiccup in one configuration does not fail the gate).
batch_rows = [r for r in engine["kernel_sweep"] if r["kernel"] == "batch"]
assert batch_rows, "kernel_sweep has no batch rows"
best = max(batch_rows, key=lambda r: r["sessions_per_s"])
host = socket.gethostname()

if update:
    row = {
        "bench": "engine_kernel_baseline",
        "hostname": host,
        "hw_threads": engine["hw_threads"],
        "kernel": "batch",
        "workers": best["workers"],
        "sessions_per_s": best["sessions_per_s"],
        # Stage 2 always runs the benches under MTD_BENCH_FAST=1, so the
        # baseline is a fast-mode rate compared against fast-mode runs.
        "fast": True,
    }
    with open(baseline_path, "w") as f:
        json.dump(row, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"throughput baseline updated: {best['sessions_per_s']:.3g} "
          f"sessions/s on {host}")
    sys.exit(0)

if not os.path.exists(baseline_path):
    print(f"throughput ratchet skipped: no {baseline_path} "
          "(run with --update-baseline to record one)")
    sys.exit(0)

base = json.load(open(baseline_path))
if base.get("hostname") != host:
    print(f"throughput ratchet skipped: baseline is from "
          f"'{base.get('hostname')}', this host is '{host}' "
          "(absolute rates do not transfer; --update-baseline here "
          "to track this host)")
    sys.exit(0)

floor = 0.9 * base["sessions_per_s"]
if best["sessions_per_s"] < floor:
    msg = (f"throughput REGRESSION: batch kernel {best['sessions_per_s']:.4g}"
           f" sessions/s < 90% of baseline {base['sessions_per_s']:.4g}"
           f" (floor {floor:.4g})")
    if os.environ.get("MTD_BENCH_ALLOW_REGRESSION"):
        print(msg + " — waived by MTD_BENCH_ALLOW_REGRESSION")
    else:
        print(msg)
        print("fix the regression, or re-record an intentional change with "
              "scripts/check_bench.sh --update-baseline")
        sys.exit(1)
else:
    print(f"throughput ratchet ok: {best['sessions_per_s']:.4g} sessions/s "
          f">= floor {floor:.4g}")
PYEOF
else
  echo "python3: not installed, throughput ratchet skipped"
fi

echo "bench smoke passed"
