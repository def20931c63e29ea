#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
reports each end-to-end metric's median and run-to-run spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --out spread.json

Runs are sequential; nothing else should load the machine meanwhile.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys


TAIL_LINE = re.compile(r"latency_tail_ms is p([\d.]+) of (\d+) samples; "
                       r"decision_lag_tail_ms is p([\d.]+) of (\d+) samples")


def run_once(command, workload, seed, seconds):
    """Returns the run's metric values and which percentiles its tails are."""
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    tails = {}
    for line in lines:
        m = TAIL_LINE.match(line)
        if m:
            tails = {"latency_tail_ms": {"pct": float(m[1]), "samples": int(m[2])},
                     "decision_lag_tail_ms": {"pct": float(m[3]), "samples": int(m[4])}}
    return {name: m["value"] for name, m in result["metrics"].items()}, tails


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", help="write the spreads as JSON to this file")
    ap.add_argument("--revision", default="", help="revision of the measured tree, recorded in --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {"runs": args.runs, "seconds": bench["run_seconds"],
              "seeds": [args.first_seed + i for i in range(args.runs)],
              "revision": args.revision, "cpu": cpu_model(), "nproc": os.cpu_count(),
              "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
              "workloads": {}}
    for w in workloads:
        runs = [run_once(bench["command"], w, seed, bench["run_seconds"])
                for seed in report["seeds"]]
        rows = {"tails": [tails for _, tails in runs]}
        for name, bound in bounds.items():
            values = [r[name] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "spread": spread, "bound": bound,
                          "values": values}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  > bound/3"
            print(f"{w:14} {name:22} median {med:12.4f}  spread {spread:7.2%}"
                  f"  bound {bound:5.0%}{flag}", flush=True)
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    main()
