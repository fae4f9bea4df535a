#!/usr/bin/env bash
# Chaos-soak smoke gate (DESIGN.md section 13), three stages:
#
#   1. Build the mtd_chaos driver (ccache-wired when available, like the
#      bench gate).
#   2. --list-fault-points: prove the registry is non-empty and printable —
#      the soak arms every listed point, so an empty registry would pass a
#      run while covering nothing.
#   3. A fast soak under MTD_SOAK_FAST=1: the full two-phase protocol
#      (clean reference run, then supervised incarnations with injected
#      faults, simulated kills and store tampering between restarts —
#      garbage past the page file's committed length and a torn record at
#      the end of the manifest log) on a horizon sized for CI minutes
#      rather than the paper's 45 days. The
#      driver exits non-zero unless the recovered store is bit-identical
#      to the clean run and every conservation identity holds; its JSON
#      report is written into the build dir as the CI artifact, and the
#      gate then reads the Supervisor's attempt log out of it.
#
# The full-horizon endurance run (mtd_chaos --days 45 --faults all) is the
# release gate, not a per-commit one; this script keeps every line of that
# machinery exercised on each push in well under two minutes.
#
# Usage: scripts/check_soak.sh [build-dir]
#   build-dir  defaults to build-soak
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR="${1:-build-soak}"
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
cmake --build "$BUILD_DIR" -j "$JOBS" --target mtd_chaos_cli

CHAOS="$BUILD_DIR/tools/chaos/mtd_chaos"

# --- Stage 2: fault-point registry sanity.
POINTS="$("$CHAOS" --list-fault-points)"
echo "$POINTS"
COUNT="$(echo "$POINTS" | grep -c .)"
if [ "$COUNT" -lt 1 ]; then
  echo "check_soak: --list-fault-points printed no points" >&2
  exit 1
fi
echo "fault-point registry: $COUNT points"

# --- Stage 3: fast soak (exit status is the verdict; the report is the
# artifact).
REPORT="$BUILD_DIR/SOAK_report.json"
MTD_SOAK_FAST=1 "$CHAOS" --seed 42 --faults all --json > "$REPORT"
echo "soak report: $REPORT"

# The compaction leg must have run: the driver compacts the chaos store
# between incarnations (faults armed) and once fault-free after completion,
# so a passing report with zero passes means the leg silently vanished.
PASSES="$(sed -n 's/.*"compaction_passes": \([0-9][0-9]*\).*/\1/p' "$REPORT" | head -1)"
if [ -z "$PASSES" ] || [ "$PASSES" -lt 1 ]; then
  echo "check_soak: report shows no compaction passes" >&2
  exit 1
fi
echo "compaction leg: $PASSES pass(es)"

# Every tamper step also appends half a record to the manifest log, so the
# next reopen goes through the torn-tail path; a report with no tears means
# that path went unexercised.
TEARS="$(sed -n 's/.*"manifest_tears": \([0-9][0-9]*\).*/\1/p' "$REPORT" | head -1)"
if [ -z "$TEARS" ] || [ "$TEARS" -lt 1 ]; then
  echo "check_soak: report shows no manifest-log tears" >&2
  exit 1
fi
echo "manifest-log tears: $TEARS"

# Each incarnation is one Supervisor::run_into_store call, and its attempt
# log must show that loop at work: some restart waited a seeded backoff,
# every attempt's final telemetry closed the conservation identity, and
# every restart resumed at the checkpoint the previous attempt committed.
python3 - "$REPORT" <<'PYEOF'
import json
import sys

report = json.load(open(sys.argv[1]))
incarnations = report["incarnation_log"]
assert incarnations, "report has no incarnations"
attempts = [a for inc in incarnations for a in inc["attempt_log"]]
assert any(a["backoff_ms"] > 0 for a in attempts), \
    "no attempt records a backoff: the Supervisor never restarted"
for i, inc in enumerate(incarnations, 1):
    log = inc["attempt_log"]
    for a in log:
        assert a["conservation_ok"], f"incarnation {i}: {a}"
    for prev, cur in zip(log, log[1:]):
        assert cur["start_minute"] == prev["reached_minute"], (
            f"incarnation {i}: attempt {cur['attempt']} starts at minute "
            f"{cur['start_minute']}, attempt {prev['attempt']} committed "
            f"through {prev['reached_minute']}")
print(f"supervisor: {len(incarnations)} incarnation(s), "
      f"{len(attempts)} attempt(s), restarts resume at the committed minute")
PYEOF

echo "chaos soak smoke passed"
