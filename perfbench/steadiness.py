#!/usr/bin/env python3
"""Steadiness report: how far the end-to-end metrics move between runs of
the same code.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Runs each workload --runs times for BENCHMARK.json's run_seconds, with
seeds 1, 2, ..., --runs, and prints for every end-to-end metric its
median and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A spread is
flagged, and the exit code is 1, when it reaches a third of the metric's
bound in BENCHMARK.json.  Starts with a host fingerprint, since spreads
and timings only compare between runs on the same host.
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
        "git_head": out(["git", "rev-parse", "--short", "HEAD"]),
    }


def main():
    spec = run.spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("quartiles need at least 4 runs")
    run.build()
    print("host " + " ".join(f"{k}={v}" for k, v in fingerprint().items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = 1 + i
            started = time.monotonic()
            code, result, _ = run.run_workload(w, seed, spec["run_seconds"], 0, echo=False)
            took = time.monotonic() - started
            if code != 0 or result is None or not result["correct"]:
                sys.exit(f"{w} seed {seed}: run failed (exit {code})")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} ({took:.0f} s): " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- at or above a third of its bound"
                steady = False
            print(f"  {w:20s} {name:14s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}", flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
