#!/usr/bin/env python3
"""The benchmark's own smoke test (about a minute).

    python3 perfbench/smoke.py

Runs every workload with a handful of units and asserts that
  - every metric BENCHMARK.json names appears, with its unit, in the
    untraced (end-to-end) and traced (per-layer) results;
  - the same seed reproduces the same ticket list, and another seed
    gives another order;
  - a deliberately corrupted pin drives fail_ratio above 0 and makes the
    run exit non-zero.
Exits non-zero on the first failed assertion.
"""

import os
import sys

import run

UNITS = ["--max-units", "3"]
SCRATCH = os.path.join(run.ROOT, ".bench_build")


def check(cond, what):
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}", flush=True)


def tickets(lines):
    return [l for l in lines if l.startswith("  ticket ")]


def main():
    spec = run.spec()
    run.build()
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    listed = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in wanted.items():
            code, result, lines = run.run_workload(name, 1, 1, trace, UNITS, echo=False)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, f"{name} trace {trace}: correct, exit 0")
            got = result["metrics"]
            missing = [m["name"] for m in metrics
                       if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
            check(not missing, f"{name} trace {trace}: every metric with its unit {missing}")
            listed.setdefault(name, tickets(lines))

    name = "fattree-tickets"
    _, _, again = run.run_workload(name, 1, 1, 0, ["--max-units", "1"], echo=False)
    check(tickets(again) == listed[name] and listed[name], f"{name}: seed 1 repeats its list")
    _, _, other = run.run_workload(name, 2, 1, 0, ["--max-units", "1"], echo=False)
    check(tickets(other) != listed[name], f"{name}: seed 2 gives another list")

    os.makedirs(SCRATCH, exist_ok=True)
    for name, prefix in (("fattree-tickets", "fattree-tickets/overgrant@"),
                         ("university-sweep", "university-sweep/summary/heimdall ")):
        corrupt = os.path.join(SCRATCH, "corrupt-pins.txt")
        with open(os.path.join(run.HERE, "pins.txt")) as f:
            pins = f.read().splitlines()
        hits = [i for i, l in enumerate(pins) if l.startswith(prefix)]
        check(len(hits) == 1, f"{name}: pin {prefix!r} found")
        pins[hits[0]] += "0"
        with open(corrupt, "w") as f:
            f.write("\n".join(pins) + "\n")
        code, result, _ = run.run_workload(name, 1, 1, 0, UNITS + ["--pins", corrupt],
                                           echo=False)
        os.remove(corrupt)
        ratio = result["failed"] / result["attempted"] if result else 0
        check(code != 0 and result is not None and not result["correct"] and ratio > 0,
              f"{name}: corrupted pin gives fail_ratio {ratio:.3f} > 0 and exit {code}")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
