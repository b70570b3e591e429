#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs each workload several times, each with another seed, and prints for
every metric the median, the quartiles and the relative spread
(Q3 - Q1) / median, next to the metric's bound. Also prints the
workload's metrics under the names of the paper's flows (the `metric`
lines each run prints). Exits 1 if any run fails or reports an
incorrect result.

Run from the repository root:

    python3 perfbench/steadiness.py                 # 10 runs per workload
    python3 perfbench/steadiness.py --runs 1        # every workload once
    python3 perfbench/steadiness.py --workloads serve-drift --runs 5 --seed0 100
    python3 perfbench/steadiness.py --trace 1 --runs 1   # per-layer metrics

Every run lasts BENCHMARK.json's `run_seconds`, the length the bounds
were set at. Quartiles are `statistics.quantiles(values, n=4)`. A
spread wider than a third of its bound is marked `wide`, one wider than
the bound `OVER`.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    named = {}
    host = next((l[len("host "):] for l in lines if l.startswith("host ")), "unknown")
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            named[parts[1]] = (float(parts[2]), parts[3])
    return proc.returncode, result, named, host, proc.stdout, proc.stderr


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    hosts = set()
    for workload in workloads:
        values, named = {}, {}
        units = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            code, result, run_named, host, out, err = run_once(
                command, workload, seed, seconds, args.trace)
            hosts.add(host)
            good = code == 0 and result is not None and result.get("correct") is True
            print(f"{workload} seed {seed}: exit {code}, "
                  f"{'correct' if good else 'FAILED'}", flush=True)
            if not good:
                ok = False
                sys.stdout.write(out[-2000:])
                sys.stderr.write(err[-2000:])
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for name, (value, unit) in run_named.items():
                named.setdefault(name, []).append(value)
                units.setdefault("named:" + name, unit)
        print(f"\n== {workload}: {args.runs} runs, {seconds} s each, trace {args.trace}")
        print(f"  {'metric':<24} {'unit':<9} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3, rel = spread(vals)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = "OVER" if rel > bound else ("wide" if rel > bound / 3 else "")
            print(f"  {name:<24} {units[name]:<9} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{rel:>8.4f} {bound if bound is not None else '-':>6} {flag}")
        print("  by the names of the paper's flows (median over runs):")
        for name, vals in named.items():
            print(f"    {name:<28} {statistics.median(vals):>16.6g} {units['named:' + name]}")
        print(flush=True)
    for host in sorted(hosts):
        print(f"host {host}")
    if len(hosts) > 1:
        print("WARNING: these runs came from different hosts; do not compare them")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
