#!/usr/bin/env python3
"""Smoke test of the benchmark binary (ctest bench_smoke).

    python3 smoke.py <path to mtd_perfbench> <path to BENCHMARK.json>

Runs every workload at smoke scale and requires exit code 0, passing output
checks and every end-to-end metric of BENCHMARK.json with its unit; runs
one traced smoke run and requires every per-layer metric and a spans file;
then corrupts one sampled-cell reference digest and requires a non-zero
exit with the result marked incorrect.
"""
import json
import os
import subprocess
import sys
import tempfile


def run(binary, out_dir, workload, *extra):
    cmd = [binary, "--workload", workload, "--scale", "smoke", "--seconds",
           "0.1", "--seed", "7", "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def missing_metrics(result, specs):
    metrics = result["metrics"]
    return [s["name"] for s in specs
            if s["name"] not in metrics or
            metrics[s["name"]]["unit"] != s["unit"]]


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench_smoke.",
                                     dir=os.getcwd()) as out_dir:
        for workload in (w["name"] for w in bench["workloads"]):
            code, result, err = run(binary, out_dir, workload, "--trace", "0")
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{workload}: exit {code}\n{err}")
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{workload}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            missing = missing_metrics(result, bench["end_to_end"])
            if missing:
                failures.append(f"{workload}: missing {missing}")

        code, result, err = run(binary, out_dir, "paper_dataset", "--trace",
                                "1")
        if code != 0 or result is None or not result["correct"]:
            failures.append(f"traced paper_dataset: exit {code}\n{err}")
        else:
            missing = missing_metrics(result, bench["per_layer"])
            if missing:
                failures.append(f"traced paper_dataset: missing {missing}")
            spans = os.path.join(out_dir, "spans", "paper_dataset-seed7.jsonl")
            if not os.path.exists(spans) or os.path.getsize(spans) == 0:
                failures.append("traced paper_dataset wrote no spans")

        code, result, err = run(binary, out_dir, "stream_binary", "--trace",
                                "0", "--corrupt-reference")
        if code == 0 or result is None or result["correct"]:
            failures.append("a corrupted reference digest was not caught "
                            f"(exit {code})")

    for failure in failures:
        print("FAIL:", failure)
    print("bench_smoke:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
