#!/usr/bin/env python3
"""Run-to-run spread and held-out-seed check for the Runtime benchmark.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...] [--trace 0|1]

Run from the repository root. For each workload it runs the benchmark
`--runs` times, each with its own seed (first-seed, first-seed+1, ...),
and prints each end-to-end metric's median and the distance between its
first and third quartile as a share of the median, beside a third of
the metric's bound in BENCHMARK.json (the steadiness target).

    python3 perfbench/spread.py --held-out 2 --runs 5

instead runs `--runs` repetitions on seed --first-seed and on the
held-out seed, and prints both medians and their difference as a share
of the first, against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed ({out.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    notes = json.loads(lines[-2])["record"]["notes"]
    values.update({"notes." + k: v for k, v in notes.items()})
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--held-out", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        if args.held_out is None:
            runs = [run_once(w, args.first_seed + i, seconds, args.trace)
                    for i in range(args.runs)]
            print(f"== {w}: {args.runs} runs, seeds {args.first_seed}.."
                  f"{args.first_seed + args.runs - 1}, {seconds} s each")
            for m in metrics:
                med, iqr = spread([r[m["name"]] for r in runs])
                target = m.get("bound", float("nan")) / 3
                flag = "" if not iqr > target else "  <-- above bound/3"
                print(f"  {m['name']:<32} median {med:<14.6g} iqr/median "
                      f"{iqr:8.4f}  bound/3 {target:.4f}{flag}")
            for note in sorted(k for k in runs[0] if k.startswith("notes.")):
                med, iqr = spread([r[note] for r in runs])
                print(f"  {note:<32} median {med:<14.6g} iqr/median "
                      f"{iqr:8.4f}  (recorded, not gated)")
        else:
            seeds = (args.first_seed, args.held_out)
            runs = {s: [run_once(w, s, seconds, args.trace)
                        for _ in range(args.runs)] for s in seeds}
            print(f"== {w}: {args.runs} runs per seed, seeds {seeds}, "
                  f"{seconds} s each")
            for m in metrics:
                a, b = (statistics.median(r[m["name"]] for r in runs[s])
                        for s in seeds)
                diff = (b - a) / a if a else float("nan")
                bound = m.get("bound", float("nan"))
                flag = "" if not abs(diff) > bound else "  <-- outside bound"
                print(f"  {m['name']:<32} seed {seeds[0]}: {a:<14.6g} seed "
                      f"{seeds[1]}: {b:<14.6g} diff {diff:+8.4f}  bound "
                      f"{bound}{flag}")


if __name__ == "__main__":
    main()
