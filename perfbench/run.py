#!/usr/bin/env python3
"""Run Heimdall's benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fattree-tickets --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The first form builds perfbench/heimbench.exe with dune, runs one
workload in its own process and relays its output; the last line of
standard output is the JSON result and the exit code is the workload's
(non-zero when any output failed its check).  `--all` runs every
workload of BENCHMARK.json, each in its own process, and prints their
metrics by name with units.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "heimbench.exe")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark and the library it links; exit 2 if impossible."""
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"run.py: {need} is missing: not a Heimdall source checkout")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/heimbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: build failed")


def run_workload(workload, seed, seconds, trace, extra=(), echo=True):
    """Run one workload; return (exit code, parsed JSON result or None, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--pins", os.path.join(HERE, "pins.txt"), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                print(line, end="", flush=True)
    finally:
        proc.stdout.close()
        code = proc.wait()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return code, result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    build()
    s = spec()
    seconds = args.seconds if args.seconds is not None else s["run_seconds"]
    if not args.all:
        code, _, _ = run_workload(args.workload, args.seed, seconds, args.trace)
        sys.exit(code)
    worst = 0
    summary = []
    for w in s["workloads"]:
        code, result, _ = run_workload(w["name"], args.seed, seconds, args.trace, echo=False)
        worst = worst or code
        if result is None:
            summary.append(f"{w['name']}: no result (exit {code})")
            continue
        ratio = result["failed"] / result["attempted"]
        summary.append(f"{w['name']}: fail_ratio {ratio:.4f} "
                       f"({result['failed']} of {result['attempted']} units), exit {code}")
        for name, m in result["metrics"].items():
            summary.append(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    print("\n".join(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
