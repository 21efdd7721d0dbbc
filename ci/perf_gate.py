#!/usr/bin/env python3
"""Holds perfbench's result lines to the bounds in ci/perf_floors.json.

Runs each workload at each trace level that a bound in the floors file
names, as `perfbench --workload W --seed 1 --seconds 1 --trace T`, and
keeps each run's last standard-output line: perfbench's result object.

The floors file holds two kinds of bound:

* `counts` (measured-phase allocations) are exact, so every run must
  hold them;
* `timing` bounds (host time per call, references per second) take the
  best value of up to BEST_OF runs. A run that misses one is repeated,
  because other tenants of a shared host only ever add time, in bursts
  longer than one run; a real regression slows every run.

The gate fails if a run is missing or unreadable, if any run's `failed`
count is not 0, or if a bound does not hold.

    python3 ci/perf_gate.py ci/perf_floors.json "$CARGO_TARGET_DIR/release/perfbench"

Each run's line, `{"workload": W, "trace": T, "result": {...}}`, goes
to perfbench-results.jsonl in the working directory. Exit status: 0
when every check passes, 1 when one fails, 2 on a usage error.
"""

import argparse
import json
import subprocess
import sys

RUN_ARGS = ["--seed", "1", "--seconds", "1"]
BEST_OF = 3
OUT = "perfbench-results.jsonl"


def value(result, metric):
    """The metric's value in one result object, or None."""
    return ((result or {}).get("metrics") or {}).get(metric, {}).get("value")


def holds(gate, v):
    return v is not None and gate.get("min", v) <= v <= gate.get("max", v)


def best(gate, values):
    """The most favourable of a timing bound's values."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return max(values) if "min" in gate else min(values)


def pairs(floors):
    """The (workload, trace) pairs the bounds name, each once, sorted."""
    return sorted({(g["workload"], g["trace"]) for g in floors["timing"] + floors["counts"]})


def run_all(perfbench, floors):
    """Runs every pair, repeating it while one of its timing bounds
    misses; writes each run's line and returns the result objects of
    each pair's runs (None for a run without one)."""
    runs = {}
    with open(OUT, "w") as out:
        for workload, trace in pairs(floors):
            timing = [g for g in floors["timing"] if (g["workload"], g["trace"]) == (workload, trace)]
            results = runs.setdefault((workload, trace), [])
            for _ in range(BEST_OF):
                cmd = [perfbench, "--workload", workload, "--trace", str(trace)]
                proc = subprocess.run(cmd + RUN_ARGS, stdout=subprocess.PIPE, text=True)
                last = (proc.stdout.strip().splitlines() or [""])[-1]
                try:
                    result = json.loads(last)
                except json.JSONDecodeError:
                    result = None
                line = {"workload": workload, "trace": trace, "result": result}
                out.write(json.dumps(line) + "\n")
                results.append(result)
                if all(holds(g, best(g, [value(r, g["metric"]) for r in results]))
                       for g in timing):
                    break
    return runs


def check(floors, runs):
    """One PASS or FAIL line per check of the runs' result objects."""
    verdicts = []

    def verdict(passed, text):
        verdicts.append(f"[{'PASS' if passed else 'FAIL'}] {text}")

    def bounds(gate):
        parts = [f"floor {gate['min']:g}"] if "min" in gate else []
        parts += [f"ceiling {gate['max']:g}"] if "max" in gate else []
        if "median" in gate:
            parts.append(f"median {gate['median']:g}")
        return ", ".join(parts)

    for workload, trace in pairs(floors):
        results = runs.get((workload, trace), [])
        name = f"{workload} --trace {trace}"
        if not results or not all(isinstance(r, dict) and "failed" in r for r in results):
            verdict(False, f"{name}: a run left no perfbench result line")
            continue
        failed = [r["failed"] for r in results]
        verdict(not any(failed), f"{name}: failed {'/'.join(map(str, failed))}")
    for gate in floors["counts"]:
        results = runs.get((gate["workload"], gate["trace"]), [])
        values = [value(r, gate["metric"]) for r in results]
        shown = "/".join("missing" if v is None else f"{v:g}" for v in values) or "missing"
        verdict(
            bool(values) and all(holds(gate, v) for v in values),
            f"{gate['workload']} --trace {gate['trace']} {gate['metric']} = {shown} "
            f"in every run ({bounds(gate)})",
        )
    for gate in floors["timing"]:
        results = runs.get((gate["workload"], gate["trace"]), [])
        v = best(gate, [value(r, gate["metric"]) for r in results])
        shown = "missing" if v is None else f"{v:g}"
        verdict(
            holds(gate, v),
            f"{gate['workload']} --trace {gate['trace']} {gate['metric']} = {shown} "
            f"best of {len(results)} run(s) ({bounds(gate)})",
        )
    return verdicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("floors", help="the floors file, ci/perf_floors.json")
    parser.add_argument("perfbench", help="the perfbench binary to run")
    args = parser.parse_args()

    with open(args.floors) as f:
        floors = json.load(f)
    verdicts = check(floors, run_all(args.perfbench, floors))
    print("\n".join(verdicts))
    failed = sum(v.startswith("[FAIL]") for v in verdicts)
    print(f"perf gate: {len(verdicts) - failed} of {len(verdicts)} checks pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
