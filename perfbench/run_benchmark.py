#!/usr/bin/env python3
"""Runs every workload of the benchmark several times and summarizes it.

    python3 perfbench/run_benchmark.py [--rounds R] [--seed N] [--vary-seed]
        [--trace] [--record-history]

Each run is its own process (perfbench/run.py), measuring for the
run_seconds that BENCHMARK.json fixes. The workload order is
reversed every other round, so no workload always runs first or last. For
each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (quartile distance / median) next to the bound that
BENCHMARK.json fixes. --vary-seed gives round r the seed N + r, which is how
the spread a bound must cover is measured. --record-history appends one row
per workload to perfbench/history.jsonl: every run's values, their medians
and spreads, and this host's fingerprint.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result


def host_fingerprint():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    flags = ""
    with open(os.path.join(build_dir, "CMakeFiles", "mtd_perfbench.dir",
                           "flags.make")) as f:
        for line in f:
            if line.startswith("CXX_FLAGS"):
                flags = line.split("=", 1)[1].strip()
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                               "--version"], stdout=subprocess.PIPE,
                              text=True).stdout.splitlines()[0]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": flags,
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20231024)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record-history", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer" if args.trace else "end_to_end"]

    values = {w: {} for w in workloads}
    for r in range(args.rounds):
        order = workloads if r % 2 == 0 else workloads[::-1]
        seed = args.seed + r if args.vary_seed else args.seed
        for w in order:
            result = run_once(w, seed, seconds, args.trace)
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"round {r} {w} seed {seed}: ok", file=sys.stderr)

    medians = {}
    spreads = {}
    print(f"{'workload':15} {'metric':38} {'unit':11} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        medians[w] = {}
        spreads[w] = {}
        for spec in specs:
            samples = values[w][spec["name"]]
            med = statistics.median(samples)
            medians[w][spec["name"]] = med
            if len(samples) >= 2:
                q1, _, q3 = statistics.quantiles(samples, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            spreads[w][spec["name"]] = spread
            bound = spec.get("bound")
            flag = " over 1/3 of bound" if bound and spread > bound / 3 else ""
            print(f"{w:15} {spec['name']:38} {spec['unit']:11} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")

    if args.record_history:
        host = host_fingerprint()
        with open(os.path.join(HERE, "history.jsonl"), "a") as f:
            for w in workloads:
                row = {"workload": w, "trace": args.trace,
                       "rounds": args.rounds, "seconds": seconds,
                       "seed": args.seed, "vary_seed": args.vary_seed,
                       "medians": medians[w], "spreads": spreads[w],
                       "values": values[w], "host": host}
                f.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
