#!/usr/bin/env python3
"""Steadiness tooling for the benchmark.

Run each workload N times untraced (seeds 1..N) and print, per metric, the median, the
quartiles and the spread (interquartile distance as a share of the median), checked
against the metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py run --runs 10 --out first.json [--workload etc_1core ...]
        [--seconds S]

Compare two result sets: for every end-to-end metric and workload, how much worse the
second median is than the first, as a share of the first, against the bound:

    python3 perfbench/steady.py compare first.json second.json

Both commands exit 1 when a bound is exceeded. setup_s is exempt from the spread check,
as in the benchmark's acceptance rule: it is a host wall time of under two seconds,
spread by host noise the run cannot average away. Its median is still held to its bound
by compare, so work moved into set-up shows there.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def cmd_run(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {}
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, seconds))
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        results[workload] = runs
        print(f"{workload}: {args.runs} runs")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]:
            med, q1, q3, spread = summarize([r[name] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound else "OVER"
                ok = ok and spread <= bound
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    print(f"{'workload':20} {'metric':20} {'first':>14} {'second':>14} {'worse_by':>9} {'bound':>6}")
    for workload in sorted(set(first) & set(second)):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and worse <= m["bound"]
            print(f"{workload:20} {name:20} {a:14.6g} {b:14.6g} {worse:9.4f} {m['bound']:6} {flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", action="append")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seconds", type=int, default=0)
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
